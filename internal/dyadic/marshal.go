package dyadic

import (
	"encoding/binary"
	"fmt"

	"skimsketch/internal/binfmt"
	"skimsketch/internal/core"
)

// Binary serialization: "SKDY" magic, u32 version, u32 bits, u32 tables,
// u32 buckets, u64 seed, then bits+1 length-prefixed level-sketch blobs
// (each produced by core.HashSketch.MarshalBinary). Each level's config
// must be the one New derives from the header.

const (
	hierarchyMagic   = "SKDY"
	hierarchyVersion = 1
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (h *Hierarchy) MarshalBinary() ([]byte, error) {
	buf := binfmt.AppendHeader(make([]byte, 0, 28), hierarchyMagic, hierarchyVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.bits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.cfg.Tables))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.cfg.Buckets))
	buf = binary.LittleEndian.AppendUint64(buf, h.cfg.Seed)
	for _, sk := range h.levels {
		blob, err := sk.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binfmt.AppendBlob(buf, blob)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver's state entirely. Levels are decoded one bounded blob at a
// time, so a hostile header cannot make it allocate more counters than
// the blob carries.
func (h *Hierarchy) UnmarshalBinary(data []byte) error {
	r := binfmt.Open(data, hierarchyMagic, hierarchyVersion)
	bits := int(r.U32())
	cfg := core.Config{Tables: int(r.U32()), Buckets: int(r.U32()), Seed: r.U64()}
	if err := r.Err(); err != nil {
		return err
	}
	if bits > 62 {
		return fmt.Errorf("dyadic: bits %d out of range", bits)
	}
	fresh := &Hierarchy{bits: bits, cfg: cfg}
	for l, want := range levelConfigs(bits, cfg) {
		blob := r.Blob()
		if err := r.Err(); err != nil {
			return fmt.Errorf("dyadic: level %d: %w", l, err)
		}
		sk := new(core.HashSketch)
		if err := sk.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("dyadic: level %d: %w", l, err)
		}
		if sk.Config() != want {
			return fmt.Errorf("dyadic: level %d config %+v, header derives %+v", l, sk.Config(), want)
		}
		fresh.levels = append(fresh.levels, sk)
	}
	if err := r.Done(); err != nil {
		return err
	}
	*h = *fresh
	return nil
}
