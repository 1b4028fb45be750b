package core

import (
	"encoding/binary"

	"skimsketch/internal/binfmt"
)

// Binary serialization for checkpointing and shipping sketches between
// processes. Because every hash family is derived deterministically from
// the Config seed, only the configuration, the counters and the stream
// counts need to travel; UnmarshalBinary rebuilds the families. The
// format is little-endian: 4-byte magic "SKHS", u32 version, u32 tables,
// u32 buckets, u64 seed, i64 net, i64 gross, then tables·buckets i64
// counters.

const (
	hashSketchMagic   = "SKHS"
	hashSketchVersion = 1
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *HashSketch) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.BinarySize()))
}

// BinarySize is the length of the sketch's binary encoding.
func (s *HashSketch) BinarySize() int { return 40 + 8*len(s.counters) }

// AppendBinary appends the sketch's binary encoding to b and returns the
// extended slice (encoding.BinaryAppender's contract). It never fails;
// the error keeps that signature.
func (s *HashSketch) AppendBinary(b []byte) ([]byte, error) {
	b = binfmt.AppendHeader(b, hashSketchMagic, hashSketchVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.cfg.Tables))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.cfg.Buckets))
	b = binary.LittleEndian.AppendUint64(b, s.cfg.Seed)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.net))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.gross))
	return binfmt.AppendInt64s(b, s.counters), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's state entirely (including hash families, rebuilt from the
// serialized seed).
func (s *HashSketch) UnmarshalBinary(data []byte) error {
	r := binfmt.Open(data, hashSketchMagic, hashSketchVersion)
	cfg := Config{Tables: int(r.U32()), Buckets: int(r.U32()), Seed: r.U64()}
	net, gross := r.I64(), r.I64()
	counters := r.Int64s(uint64(cfg.Tables) * uint64(cfg.Buckets))
	if err := r.Done(); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	*s = *withCounters(cfg, counters)
	s.net, s.gross = net, gross
	return nil
}
