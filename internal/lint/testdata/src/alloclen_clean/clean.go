// Clean fixture for the alloclen analyzer: the validate-before-alloc
// discipline from docs/FORMATS.md — every decoded size is bounded
// before it reaches make().
package alloclen_clean

import (
	"encoding/binary"
	"errors"

	"skimsketch/internal/binfmt"
)

const maxFrame = 1 << 20

var errTooBig = errors.New("frame too big")

type cursor struct {
	buf []byte
	off int
}

func (c *cursor) u32() uint32 {
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v
}

// Decoded length bounded against a named constant before allocating.
func decodeFrame(buf []byte) ([]byte, error) {
	n := binary.LittleEndian.Uint32(buf)
	if int(n) > maxFrame {
		return nil, errTooBig
	}
	out := make([]byte, int(n))
	return out, nil
}

// Bounded against the remaining input: a declared length can never
// exceed the bytes actually present.
func decodeBlob(buf []byte) []byte {
	n, k := binary.Uvarint(buf)
	if k <= 0 || int(n) > len(buf[k:]) {
		return nil
	}
	return make([]byte, n)
}

// Cursor-decoded count, checked before sizing the slice.
func decodeGroups(c *cursor) []uint64 {
	n := c.u32()
	if n > maxFrame {
		return nil
	}
	return make([]uint64, n)
}

// Constant and len()-derived sizes are never tainted.
func header() []byte {
	return make([]byte, 16)
}

func clone(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// binfmt-decoded count, bounded by the bytes that remain.
func decodeRows(data []byte) [][]int64 {
	r := binfmt.Open(data, "SKXX", 1)
	rows := r.U32()
	if uint64(rows) > uint64(r.Len())/8 {
		return nil
	}
	return make([][]int64, rows)
}
