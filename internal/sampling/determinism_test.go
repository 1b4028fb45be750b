package sampling

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

func hashSample(sample []uint64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range sample {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func feed(r *Reservoir) {
	for i := 0; i < 5000; i++ {
		r.Update(uint64(i%257), 1+int64(i%3))
	}
}

// TestGoldenReservoir pins the byte-exact reservoir contents for a
// fixed seed and input stream.
func TestGoldenReservoir(t *testing.T) {
	r, err := NewReservoir(64, 42)
	if err != nil {
		t.Fatal(err)
	}
	feed(r)
	const want = "0554c73669df29697905491ae21094adf3099867e1cab1a71f7c14c188366707"
	if got := hashSample(r.sample); got != want {
		t.Errorf("reservoir digest = %s, want %s", got, want)
	}
}

// TestSeedAndRandConstructorsAgree checks that NewReservoir(k, seed)
// is exactly NewReservoirRand(k, rand.New(rand.NewSource(seed))).
func TestSeedAndRandConstructorsAgree(t *testing.T) {
	a, err := NewReservoir(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewReservoirRand(64, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	feed(a)
	feed(b)
	if hashSample(a.sample) != hashSample(b.sample) {
		t.Error("NewReservoir(seed) and NewReservoirRand diverge")
	}
}

func TestNewReservoirRandRejectsNil(t *testing.T) {
	if _, err := NewReservoirRand(8, nil); err == nil {
		t.Error("NewReservoirRand accepted a nil rng")
	}
	if _, err := NewReservoirRand(0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("NewReservoirRand accepted k=0")
	}
}
