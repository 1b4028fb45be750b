package cluster

import (
	"encoding/binary"
	"fmt"

	"skimsketch/internal/binfmt"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
)

// The SKSL ("SKimmed Sketch sLim payload") format is what a shard ships
// to the merger tier: the query-side view of one registered join — both
// sides' synopses plus the metadata the merger needs to estimate
// without consulting the shard again. It is the fat/slim split from
// SF-sketch applied at the cluster boundary: shards keep their fat
// update-side state (hash families, intern tables, ingest pipeline) and
// serialize only the slim counters.
//
// Layout (little-endian), after the 4-byte magic "SKSL":
//
//	u32  version (currently 1)
//	u8   aggregate (0 = COUNT, 1 = SUM)
//	u64  join value domain
//	u64  left update epoch   (updates folded into the left synopsis)
//	u64  right update epoch
//	u32  left blob length,  then that many bytes of SKHS sketch
//	u32  right blob length, then that many bytes of SKHS sketch
//
// The embedded SKHS blobs are the sketch format from docs/FORMATS.md
// and carry their own validation (magic, version, dimensions vs size).

// Aggregate codes on the SKSL wire. They deliberately mirror the
// engine's Aggregate ordering but are pinned here independently: the
// wire format must not drift if the engine enum is ever reordered.
const (
	AggCount uint8 = 0
	AggSum   uint8 = 1
)

// aggCode and aggOf are the one mapping between the engine's Aggregate
// and its SKSL code, in each direction.
func aggCode(a engine.Aggregate) uint8 {
	if a == engine.Sum {
		return AggSum
	}
	return AggCount
}

func aggOf(code uint8) engine.Aggregate {
	if code == AggSum {
		return engine.Sum
	}
	return engine.Count
}

const (
	payloadMagic   = "SKSL"
	payloadVersion = 1
)

// Payload is one query's slim cluster payload: the decoded form of an
// SKSL blob.
type Payload struct {
	// Agg is the aggregate code (AggCount or AggSum).
	Agg uint8
	// Domain is the join's value domain [0, Domain).
	Domain uint64
	// LeftEpoch and RightEpoch count the updates folded into each side
	// when the payload was cut — the merger's staleness signal.
	LeftEpoch, RightEpoch uint64
	// Left and Right are the two synopses.
	Left, Right *core.HashSketch
}

// EncodePayload serializes p as an SKSL blob.
func EncodePayload(p *Payload) ([]byte, error) {
	if p == nil || p.Left == nil || p.Right == nil {
		return nil, fmt.Errorf("cluster: payload needs both sketches")
	}
	if p.Agg != AggCount && p.Agg != AggSum {
		return nil, fmt.Errorf("cluster: unknown aggregate code %d", p.Agg)
	}
	buf := binfmt.AppendHeader(make([]byte, 0, 41+p.Left.BinarySize()+p.Right.BinarySize()), payloadMagic, payloadVersion)
	buf = append(buf, p.Agg)
	buf = binary.LittleEndian.AppendUint64(buf, p.Domain)
	buf = binary.LittleEndian.AppendUint64(buf, p.LeftEpoch)
	buf = binary.LittleEndian.AppendUint64(buf, p.RightEpoch)
	buf, err := appendSketch(buf, p.Left)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal left sketch: %w", err)
	}
	if buf, err = appendSketch(buf, p.Right); err != nil {
		return nil, fmt.Errorf("cluster: marshal right sketch: %w", err)
	}
	return buf, nil
}

// appendSketch appends s as a length-prefixed SKHS sub-blob: the bytes
// binfmt.AppendBlob writes for s.MarshalBinary(), encoded in place.
func appendSketch(b []byte, s *core.HashSketch) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, uint32(s.BinarySize()))
	return s.AppendBinary(b)
}

// DecodePayload parses an SKSL blob. Every declared length is bounded
// by the bytes actually present before it is used — payloads arrive
// over the network, so a hostile header must not be able to demand
// memory the blob never shipped (the same validate-before-alloc
// discipline as every other decoder in this repository).
func DecodePayload(data []byte) (*Payload, error) {
	r := binfmt.Open(data, payloadMagic, payloadVersion)
	p := &Payload{Agg: r.U8(), Domain: r.U64(), LeftEpoch: r.U64(), RightEpoch: r.U64()}
	left, right := r.Blob(), r.Blob()
	if err := r.Done(); err != nil {
		return nil, err
	}
	if p.Agg != AggCount && p.Agg != AggSum {
		return nil, fmt.Errorf("cluster: unknown aggregate code %d", p.Agg)
	}
	p.Left = new(core.HashSketch)
	if err := p.Left.UnmarshalBinary(left); err != nil {
		return nil, fmt.Errorf("cluster: left sketch: %w", err)
	}
	p.Right = new(core.HashSketch)
	if err := p.Right.UnmarshalBinary(right); err != nil {
		return nil, fmt.Errorf("cluster: right sketch: %w", err)
	}
	return p, nil
}
