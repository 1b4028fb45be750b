// Fixture for the alloclen analyzer: allocations sized by values
// decoded straight from wire/checkpoint input with no bound check.
package alloclen

import (
	"encoding/binary"

	"skimsketch/internal/binfmt"
)

type cursor struct {
	buf []byte
	off int
}

func (c *cursor) u32() uint32 {
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v
}

// Bad: the declared count sizes the allocation directly — a 20-byte
// frame can demand gigabytes.
func decodeGroups(buf []byte) []uint64 {
	n := binary.LittleEndian.Uint32(buf)
	out := make([]uint64, int(n)) // want `make\(\) size flows from decoded input`
	return out
}

// Bad: map pre-sizing from a decoded count is the same bomb.
func decodeIndex(c *cursor) map[uint32][]byte {
	n := c.u32()
	idx := make(map[uint32][]byte, int(n)) // want `make\(\) size flows from decoded input`
	return idx
}

// Bad: varint-decoded lengths are tainted through the multi-value
// assignment.
func decodeList(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	out := make([]byte, n) // want `make\(\) size flows from decoded input`
	return out
}

// Bad: taint survives arithmetic — scaling the count doesn't bound it.
func decodePadded(c *cursor) []byte {
	n := c.u32()
	total := int(n) * 8
	return make([]byte, total) // want `make\(\) size flows from decoded input`
}

// Bad: binfmt.Reader's exported reads are decode sources too — its
// bounds checks guard the read, not what the caller allocates with it.
func decodeRows(data []byte) [][]int64 {
	r := binfmt.Open(data, "SKXX", 1)
	rows := r.U32()
	return make([][]int64, rows) // want `make\(\) size flows from decoded input`
}
