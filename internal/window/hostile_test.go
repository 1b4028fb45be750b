package window

import (
	"encoding/binary"
	"testing"
)

// Each case is a crafted SKWN blob of the kind POST /restore and
// checkpoint loading hand to UnmarshalBinary. Each must be rejected with
// an error: not a panic, and not a window that is silently wrong.

func hostileBase(t *testing.T) []byte {
	t.Helper()
	w := MustNew(40, 4, cfg(3, 8, 1))
	for v := uint64(0); v < 13; v++ {
		w.Update(v, 1)
	}
	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// The first bucket blob starts after the 60-byte header and its 4-byte
// length prefix; its SKHS seed sits 16 bytes into that blob.
const firstBucket = 64

func TestWindowUnmarshalRejectsBucketLengthBomb(t *testing.T) {
	blob := hostileBase(t)
	binary.LittleEndian.PutUint32(blob[firstBucket-4:], 1<<30)
	var w Window
	if err := w.UnmarshalBinary(blob); err == nil {
		t.Fatal("accepted a bucket whose length prefix overruns the blob")
	}
}

func TestWindowUnmarshalRejectsBucketSeedMismatch(t *testing.T) {
	blob := hostileBase(t)
	binary.LittleEndian.PutUint64(blob[firstBucket+16:], 2)
	var w Window
	if err := w.UnmarshalBinary(blob); err == nil {
		t.Fatal("accepted a bucket whose seed differs from the header's")
	}
}

func TestWindowUnmarshalRejectsWindowLengthOverflow(t *testing.T) {
	blob := hostileBase(t)
	binary.LittleEndian.PutUint64(blob[8:], 1<<62+1) // bucketCap·4 wraps to 4
	var w Window
	if err := w.UnmarshalBinary(blob); err == nil {
		t.Fatalf("accepted bucketCap 2^62+1 × 4 buckets as window length %d", w.bucketCap*int64(len(w.buckets)))
	}
}
