package sampling

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
