package dyadic

import (
	"encoding/binary"
	"testing"
)

// TestHierarchyUnmarshalRejectsLevelConfigMismatch: a 2×4 header over
// 4×2 level blobs has the right total length and the right level seeds,
// so only comparing each level's config with the one the header derives
// catches it.
func TestHierarchyUnmarshalRejectsLevelConfigMismatch(t *testing.T) {
	blob, err := MustNew(3, cfg(4, 2, 1)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[12:], 2) // header tables
	binary.LittleEndian.PutUint32(blob[16:], 4) // header buckets
	var h Hierarchy
	if err := h.UnmarshalBinary(blob); err == nil {
		t.Fatal("accepted 4x2 levels under a 2x4 header")
	}
}
