package window

import (
	"encoding/binary"
	"fmt"
	"math"

	"skimsketch/internal/binfmt"
	"skimsketch/internal/core"
)

// Binary serialization: "SKWN" magic, u32 version, u64 bucketCap, u32
// numBuckets, u32 cur, u64 curCount, u32 live, u64 total, u32 tables,
// u32 buckets, u64 seed, then numBuckets length-prefixed bucket-sketch
// blobs, each with the header's config. Restoring a window resumes
// rotation exactly where it left off.

const (
	windowMagic   = "SKWN"
	windowVersion = 1
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (w *Window) MarshalBinary() ([]byte, error) {
	buf := binfmt.AppendHeader(make([]byte, 0, 64), windowMagic, windowVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.bucketCap))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.buckets)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w.cur))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.curCount))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w.live))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(w.total))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w.cfg.Tables))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w.cfg.Buckets))
	buf = binary.LittleEndian.AppendUint64(buf, w.cfg.Seed)
	for _, sk := range w.buckets {
		blob, err := sk.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binfmt.AppendBlob(buf, blob)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, replacing the
// receiver entirely. Buckets are decoded one bounded blob at a time, so
// a hostile header cannot make it allocate more counters than the blob
// carries.
func (w *Window) UnmarshalBinary(data []byte) error {
	r := binfmt.Open(data, windowMagic, windowVersion)
	fresh := &Window{bucketCap: r.I64()}
	numBuckets := int(r.U32())
	fresh.cur, fresh.curCount, fresh.live, fresh.total = int(r.U32()), r.I64(), int(r.U32()), r.I64()
	fresh.cfg = core.Config{Tables: int(r.U32()), Buckets: int(r.U32()), Seed: r.U64()}
	if err := r.Err(); err != nil {
		return err
	}
	// bucketCap·numBuckets is the window length; it must fit an int64.
	if numBuckets <= 0 || fresh.bucketCap <= 0 || fresh.bucketCap > math.MaxInt64/int64(numBuckets) {
		return fmt.Errorf("window: invalid shape %dx%d", numBuckets, fresh.bucketCap)
	}
	if fresh.cur >= numBuckets || fresh.live >= numBuckets ||
		fresh.curCount < 0 || fresh.curCount >= fresh.bucketCap {
		return fmt.Errorf("window: inconsistent rotation state")
	}
	for i := 0; i < numBuckets; i++ {
		blob := r.Blob()
		if err := r.Err(); err != nil {
			return fmt.Errorf("window: bucket %d: %w", i, err)
		}
		sk := new(core.HashSketch)
		if err := sk.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("window: bucket %d: %w", i, err)
		}
		if sk.Config() != fresh.cfg {
			return fmt.Errorf("window: bucket %d config %+v, header says %+v", i, sk.Config(), fresh.cfg)
		}
		fresh.buckets = append(fresh.buckets, sk)
	}
	if err := r.Done(); err != nil {
		return err
	}
	*w = *fresh
	return nil
}
