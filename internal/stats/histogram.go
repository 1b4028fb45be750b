package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"skimsketch/internal/binfmt"
)

// Histogram is a log-bucketed histogram of non-negative int64 samples
// (latencies in nanoseconds, queue waits, batch sizes — anything whose
// interesting range spans orders of magnitude). Its purpose in this
// codebase is percentile aggregation across workers that is actually
// correct: every Histogram shares one fixed global bucket layout, so
// Merge is exact bucket-wise addition and a quantile of the merged
// histogram equals the quantile of the concatenated sample streams (to
// bucket resolution). Averaging per-worker percentiles — the tempting
// shortcut — is simply wrong for any non-uniform load split, and the
// tests in histogram_test.go keep a counter-example pinned.
//
// Layout: values 0..15 get exact unit buckets; above that, each
// power-of-two range is split into 16 sub-buckets (4 mantissa bits), so
// the relative bucket width — and therefore the worst-case quantile
// error — is bounded by 1/16 ≈ 6.25%. The layout tiles the entire
// non-negative int64 range: every sample has a bucket, there is no
// overflow case (2^62 ns ≈ 146 years).
//
// The zero value is ready to use. Histogram is not goroutine-safe; the
// intended pattern is one Histogram per worker, merged after the fact.
type Histogram struct {
	counts [numBuckets]uint64
	count  int64 // total samples
	sum    int64 // exact sum, for Mean
	min    int64 // exact, valid when count > 0
	max    int64 // exact, valid when count > 0
}

const (
	// histMantissaBits sub-bucket resolution: 16 sub-buckets per
	// power-of-two range.
	histMantissaBits = 4
	histSubBuckets   = 1 << histMantissaBits

	// Values in [0, histSubBuckets) are their own bucket; above, the
	// bucket index is derived from the bit length. A non-negative int64
	// has a top set bit between histMantissaBits and 62, giving
	// (63 - histMantissaBits) log ranges that cover the whole range.
	numBuckets = histSubBuckets + (63-histMantissaBits)*histSubBuckets
)

// bucketIndex maps a non-negative sample to its bucket.
func bucketIndex(v int64) int {
	if v < histSubBuckets {
		return int(v)
	}
	msb := bits.Len64(uint64(v)) - 1 // in [histMantissaBits, 62]
	sub := int(v>>(uint(msb)-histMantissaBits)) & (histSubBuckets - 1)
	return histSubBuckets + (msb-histMantissaBits)*histSubBuckets + sub
}

// bucketBounds returns the [lo, hi) value range of bucket i; the final
// bucket's hi is math.MaxInt64 and that bucket is inclusive of it.
// Exposed to tests as the boundary invariant: buckets tile the
// non-negative int64 range exactly, in order, with no gaps or overlaps.
func bucketBounds(i int) (lo, hi int64) {
	if i < histSubBuckets {
		return int64(i), int64(i) + 1
	}
	rangeIdx := (i - histSubBuckets) / histSubBuckets // power-of-two range
	sub := (i - histSubBuckets) % histSubBuckets
	msb := rangeIdx + histMantissaBits
	width := int64(1) << (uint(msb) - histMantissaBits)
	lo = (int64(1) << uint(msb)) + int64(sub)*width
	if i == numBuckets-1 {
		// lo + width is 2^63, one past int64; the last bucket closes at
		// MaxInt64 inclusive.
		return lo, math.MaxInt64
	}
	return lo, lo + width
}

// Record adds one sample. Negative samples are clamped to 0 (a
// monotonic-clock latency can mathematically never be negative, but a
// clamped zero is more useful than a panic if a caller subtracts
// timestamps in the wrong order).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the exact sum of recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the exact mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the exact minimum sample (0 with no samples).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum sample (0 with no samples).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Merge adds other's samples into h, bucket by bucket — exact because
// every Histogram shares the fixed global layout. After the merge a
// quantile of h is the quantile of both sample streams concatenated.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// MergeHistograms merges hs into one fresh Histogram (nil entries are
// skipped). This is the only sanctioned way to get global percentiles
// from per-worker measurements.
func MergeHistograms(hs ...*Histogram) *Histogram {
	out := &Histogram{}
	for _, h := range hs {
		out.Merge(h)
	}
	return out
}

// Quantile returns the q-quantile (q in [0, 1]) of h's samples: the
// representative value of the bucket holding the sample of rank
// ⌈q·count⌉ (rank 1 for q = 0). With no samples it returns 0. The exact
// tracked Min/Max tighten the two ends: q = 0 reports Min and q = 1
// reports Max exactly; interior quantiles carry the ≤ 1/16 relative
// bucket error.
func Quantile(h *Histogram, q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := int64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += int64(c)
		if cum >= rank {
			lo, hi := bucketBounds(i)
			// Clamp the representative into the observed range so a
			// quantile can never exceed the exact Max or undercut Min.
			rep := lo + (hi-lo)/2
			if rep > h.max {
				rep = h.max
			}
			if rep < h.min {
				rep = h.min
			}
			return rep
		}
	}
	return h.Max() // unreachable: cum reaches count
}

// Binary format SKLH (see docs/FORMATS.md): magic "SKLH", u32 version,
// u32 bucket count (must equal the fixed layout's), i64 count/sum/min/
// max, then the non-zero buckets as (u32 index, u64 count) pairs — the
// histogram is sparse in practice, so this is far smaller than the full
// bucket array.

const (
	histMagic   = "SKLH"
	histVersion = 1
)

// MarshalBinary encodes h in the SKLH format.
func (h *Histogram) MarshalBinary() ([]byte, error) {
	nonzero := 0
	for _, c := range h.counts {
		if c != 0 {
			nonzero++
		}
	}
	buf := binfmt.AppendHeader(make([]byte, 0, 4+4+4+4*8+4+nonzero*12), histMagic, histVersion)
	buf = binary.LittleEndian.AppendUint32(buf, numBuckets)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.count))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.sum))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.Min()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.Max()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nonzero))
	for i, c := range h.counts {
		if c != 0 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
			buf = binary.LittleEndian.AppendUint64(buf, c)
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes an SKLH blob, validating structure before
// allocating or trusting anything (the fuzz-hardened house invariant):
// magic, version, layout size, entry count against the blob length,
// strictly increasing in-range bucket indexes, and the header count
// equal to the bucket total.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	r := binfmt.Open(data, histMagic, histVersion)
	nb := r.U32()
	count, sum, minV, maxV := r.I64(), r.I64(), r.I64(), r.I64()
	entries := r.U32()
	if err := r.Err(); err != nil {
		return err
	}
	if nb != numBuckets {
		return fmt.Errorf("stats: histogram layout has %d buckets, want %d", nb, numBuckets)
	}
	if uint64(entries)*12 != uint64(r.Len()) {
		return fmt.Errorf("stats: SKLH blob length %d does not match %d entries", len(data), entries)
	}
	if count < 0 {
		return fmt.Errorf("stats: negative histogram count %d", count)
	}
	if count > 0 && (minV < 0 || minV > maxV) {
		return fmt.Errorf("stats: histogram min/max %d/%d invalid", minV, maxV)
	}
	var nh Histogram
	var total uint64
	prev := -1
	for e := uint32(0); e < entries; e++ {
		idx, c := int(r.U32()), r.U64() // in bounds: the length matches entries
		if idx <= prev || idx >= numBuckets {
			return fmt.Errorf("stats: histogram bucket index %d out of order or range", idx)
		}
		if c == 0 {
			return fmt.Errorf("stats: explicit zero-count bucket %d", idx)
		}
		if c > uint64(count)-total { // also rejects total overflow
			return fmt.Errorf("stats: bucket counts exceed header count %d", count)
		}
		prev = idx
		nh.counts[idx] = c
		total += c
	}
	if int64(total) != count {
		return fmt.Errorf("stats: bucket total %d != header count %d", total, count)
	}
	if count == 0 && (sum != 0 || minV != 0 || maxV != 0) {
		return fmt.Errorf("stats: empty histogram with non-zero summary fields")
	}
	if count > 0 {
		// min and max must land in the extreme non-zero buckets.
		first, last := -1, -1
		for i, c := range nh.counts {
			if c != 0 {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if bucketIndex(minV) != first || bucketIndex(maxV) != last {
			return fmt.Errorf("stats: histogram min/max disagree with bucket contents")
		}
	}
	nh.count = count
	nh.sum = sum
	nh.min = minV
	nh.max = maxV
	*h = nh
	return nil
}
