package countmin

import (
	"encoding/binary"
	"fmt"

	"skimsketch/internal/binfmt"
)

// Binary serialization mirrors internal/core's: "SKCM" magic, u32
// version, u32 d, u32 b, u64 seed, i64 net, u8 sawNeg, then d·b i64
// counters, little-endian. The pairwise hash families are rebuilt
// deterministically from the seed on load, so only dimensions, seed
// and counters travel.

const (
	sketchMagic   = "SKCM"
	sketchVersion = 1
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := binfmt.AppendHeader(make([]byte, 0, 33+8*len(s.counters)), sketchMagic, sketchVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.d))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.b))
	buf = binary.LittleEndian.AppendUint64(buf, s.seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.net))
	var sawNeg byte
	if s.sawNeg {
		sawNeg = 1
	}
	return binfmt.AppendInt64s(append(buf, sawNeg), s.counters), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's state entirely (including hash families, rebuilt from the
// serialized seed).
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := binfmt.Open(data, sketchMagic, sketchVersion)
	d, b, seed, net, sawNeg := r.U32(), r.U32(), r.U64(), r.I64(), r.U8()
	counters := r.Int64s(uint64(d) * uint64(b))
	if err := r.Done(); err != nil {
		return err
	}
	if sawNeg > 1 {
		return fmt.Errorf("countmin: bad sawNeg flag %d", sawNeg)
	}
	fresh, err := New(int(d), int(b), seed)
	if err != nil {
		return fmt.Errorf("countmin: unmarshal: %w", err)
	}
	fresh.net, fresh.sawNeg, fresh.counters = net, sawNeg == 1, counters
	*s = *fresh
	return nil
}
