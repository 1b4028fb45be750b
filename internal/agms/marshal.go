package agms

import (
	"encoding/binary"
	"fmt"

	"skimsketch/internal/binfmt"
)

// Binary serialization mirrors internal/core's: "SKAG" magic, u32
// version, u32 s1, u32 s2, u64 seed, then s1·s2 i64 counters,
// little-endian. The ξ families are rebuilt from the seed on load.

const (
	sketchMagic   = "SKAG"
	sketchVersion = 1
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := binfmt.AppendHeader(make([]byte, 0, 24+8*len(s.counters)), sketchMagic, sketchVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.s1))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.s2))
	buf = binary.LittleEndian.AppendUint64(buf, s.seed)
	return binfmt.AppendInt64s(buf, s.counters), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's state entirely.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := binfmt.Open(data, sketchMagic, sketchVersion)
	s1, s2, seed := r.U32(), r.U32(), r.U64()
	counters := r.Int64s(uint64(s1) * uint64(s2))
	if err := r.Done(); err != nil {
		return err
	}
	fresh, err := New(int(s1), int(s2), seed)
	if err != nil {
		return fmt.Errorf("agms: unmarshal: %w", err)
	}
	fresh.counters = counters
	*s = *fresh
	return nil
}
