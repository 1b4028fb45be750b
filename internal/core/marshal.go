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
	buf := binfmt.AppendHeader(make([]byte, 0, 40+8*len(s.counters)), hashSketchMagic, hashSketchVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.cfg.Tables))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.cfg.Buckets))
	buf = binary.LittleEndian.AppendUint64(buf, s.cfg.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.net))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.gross))
	return binfmt.AppendInt64s(buf, s.counters), nil
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
