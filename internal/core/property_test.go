package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"skimsketch/internal/stream"
)

// Property-based tests (testing/quick) pinning down the algebraic
// invariants the estimator's correctness rests on: linearity of the
// sketch transform, exact invertibility of skimming, and consistency of
// the decomposed estimate.

// miniStream turns fuzz input into a bounded update stream.
func miniStream(vals []uint16, weights []int8) []stream.Update {
	us := make([]stream.Update, 0, len(vals))
	for i, v := range vals {
		w := int64(1)
		if i < len(weights) {
			w = int64(weights[i])
		}
		if w == 0 {
			w = 1
		}
		us = append(us, stream.Update{Value: uint64(v % 512), Weight: w})
	}
	return us
}

// Property: sketching is a linear map — sketch(A ++ B) = sketch(A) + sketch(B),
// for arbitrary signed update streams.
func TestQuickLinearity(t *testing.T) {
	c := cfg(3, 32, 99)
	f := func(v1 []uint16, w1 []int8, v2 []uint16, w2 []int8) bool {
		a := MustNewHashSketch(c)
		b := MustNewHashSketch(c)
		both := MustNewHashSketch(c)
		u1, u2 := miniStream(v1, w1), miniStream(v2, w2)
		stream.Apply(u1, a, both)
		stream.Apply(u2, b, both)
		if err := a.Combine(b); err != nil {
			return false
		}
		for j := 0; j < 3; j++ {
			for k := 0; k < 32; k++ {
				if a.counters[j*a.cfg.Buckets+k] != both.counters[j*both.cfg.Buckets+k] {
					return false
				}
			}
		}
		return a.NetCount() == both.NetCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: update order never matters (commutativity of the transform).
func TestQuickOrderInvariance(t *testing.T) {
	c := cfg(3, 32, 7)
	f := func(vals []uint16, weights []int8) bool {
		us := miniStream(vals, weights)
		fwd := MustNewHashSketch(c)
		rev := MustNewHashSketch(c)
		stream.Apply(us, fwd)
		for i := len(us) - 1; i >= 0; i-- {
			rev.Update(us[i].Value, us[i].Weight)
		}
		for j := 0; j < 3; j++ {
			for k := 0; k < 32; k++ {
				if fwd.counters[j*fwd.cfg.Buckets+k] != rev.counters[j*rev.cfg.Buckets+k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// wideStream turns fuzz input into an update stream over the whole
// uint64 range: odd draws keep all 64 bits, so values ≥ p reach the
// hash, and even draws fold into [0, 512), so skims of that domain find
// dense values.
func wideStream(vals []uint64, weights []int8) []stream.Update {
	us := make([]stream.Update, 0, len(vals))
	for i, v := range vals {
		if v&1 == 0 {
			v %= 512
		}
		w := int64(1)
		if i < len(weights) && weights[i] != 0 {
			w = int64(weights[i])
		}
		us = append(us, stream.Update{Value: v, Weight: w})
	}
	return us
}

// hornerFold is the reference UpdateBatch is held to: it folds us into
// s table by table, each update through the table's scalar
// Pairwise.Bucket and Horner-rule FourWise.Sign, not the row kernel.
func hornerFold(s *HashSketch, us []stream.Update) {
	b := s.cfg.Buckets
	for j, r := range s.rows {
		row := s.counters[j*b : (j+1)*b]
		for _, u := range us {
			row[r.H.Bucket(u.Value, b)] += u.Weight * r.Xi.Sign(u.Value)
		}
	}
	for _, u := range us {
		s.net += u.Weight
		s.gross += max(u.Weight, -u.Weight)
	}
}

// chunkBy splits updates into consecutive chunks whose sizes are driven
// by the fuzz bytes (size = b%40 + 1, so single updates and chunks that
// cross UpdateBatch's internal 16-update boundary both occur).
func chunkBy(us []stream.Update, sizes []uint8) [][]stream.Update {
	var chunks [][]stream.Update
	i := 0
	for off := 0; off < len(us); {
		n := 1
		if len(sizes) > 0 {
			n = int(sizes[i%len(sizes)]%40) + 1
			i++
		}
		end := off + n
		if end > len(us) {
			end = len(us)
		}
		chunks = append(chunks, us[off:end])
		off = end
	}
	return chunks
}

// sameSketch reports whether two sketches hold identical counters and
// counts.
func sameSketch(a, b *HashSketch) bool {
	return slices.Equal(a.counters, b.counters) && a.net == b.net && a.gross == b.gross
}

// Property: Update and UpdateBatch over any chunking of a full-range
// stream are bit-for-bit identical to the per-table Horner loop — same
// counters, same counts, and exactly the same skimmed-sketch estimate
// (components included).
func TestQuickBatchSequentialEquivalence(t *testing.T) {
	c := cfg(5, 32, 17)
	f := func(v1 []uint64, w1 []int8, v2 []uint64, w2 []int8, splits []uint8) bool {
		u1, u2 := wideStream(v1, w1), wideStream(v2, w2)
		fRef, gRef := MustNewHashSketch(c), MustNewHashSketch(c)
		hornerFold(fRef, u1)
		hornerFold(gRef, u2)
		fSeq, gSeq := MustNewHashSketch(c), MustNewHashSketch(c)
		stream.Apply(u1, fSeq)
		stream.Apply(u2, gSeq)
		fBat, gBat := MustNewHashSketch(c), MustNewHashSketch(c)
		for _, chunk := range chunkBy(u1, splits) {
			fBat.UpdateBatch(chunk)
		}
		for _, chunk := range chunkBy(u2, splits) {
			gBat.UpdateBatch(chunk)
		}
		if !sameSketch(fRef, fSeq) || !sameSketch(fRef, fBat) || !sameSketch(gRef, gSeq) || !sameSketch(gRef, gBat) {
			return false
		}
		// Exact equality of the full decomposed estimate, skim included.
		estRef, err1 := EstimateJoin(fRef, gRef, 512, nil)
		estBat, err2 := EstimateJoin(fBat, gBat, 512, nil)
		if err1 != nil || err2 != nil || estRef != estBat {
			return false
		}
		// And of the no-skim (raw bucket inner product) estimate.
		rawRef, err1 := EstimateJoin(fRef, gRef, 512, &Options{NoSkim: true})
		rawBat, err2 := EstimateJoin(fBat, gBat, 512, &Options{NoSkim: true})
		return err1 == nil && err2 == nil && rawRef == rawBat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// combineBatch turns fuzz input into a batch long enough for
// UpdateBatch to combine, spanning up to three combine tables: values
// from at most five keys, int8 weights of both signs, MinInt64 and
// MaxInt64 weights whose sums wrap, and runs that cancel to zero (an
// update followed, later, by its negation). With collide set it adds a
// key family that all hash to one combine slot, so values past the
// probe bound fold uncombined.
func combineBatch(keys []uint64, weights []int8, extra uint16, collide bool) []stream.Update {
	if len(keys) == 0 {
		keys = []uint64{0}
	}
	keys = keys[:min(len(keys), 5)]
	if collide {
		// v = (slot<<(64−combineBits) + i)·combineMul⁻¹ hashes to slot.
		inv := uint64(combineMul)
		for range 5 {
			inv *= 2 - combineMul*inv // Newton: doubles the correct low bits
		}
		for i := range uint64(3 * combineProbe) {
			keys = append(keys, (5<<(64-combineBits)+i)*inv)
		}
	}
	n := combineMin + int(extra)%(2*combineSpan)
	us := make([]stream.Update, 0, n)
	for i := 0; len(us) < n; i++ {
		w := int64(1)
		if len(weights) > 0 {
			w = int64(weights[i%len(weights)])
		}
		switch i % 11 {
		case 3:
			w = math.MinInt64
		case 7:
			w = math.MaxInt64
		}
		u := stream.Update{Value: keys[(uint64(i)*7+uint64(w))%uint64(len(keys))], Weight: w}
		us = append(us, u)
		if i%5 == 0 && len(us) > 3 {
			// cancel an earlier update
			v := us[len(us)-3]
			us = append(us, stream.Update{Value: v.Value, Weight: -v.Weight})
		}
	}
	return us[:n]
}

// Property: a batch long enough to combine duplicate values folds to
// the same counters, net and gross as the per-table Horner loop applied
// one update at a time.
func TestQuickCombinedBatchMatchesSequential(t *testing.T) {
	c := cfg(5, 64, 23)
	check := func(us []stream.Update) bool {
		ref, got := MustNewHashSketch(c), MustNewHashSketch(c)
		for i := range us {
			hornerFold(ref, us[i:i+1])
		}
		got.UpdateBatch(us)
		return sameSketch(ref, got)
	}
	f := func(keys []uint64, weights []int8, extra uint16, collide bool) bool {
		return check(combineBatch(keys, weights, extra, collide))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	// Every value cancels: the counters stay zero, net is 0, and gross
	// still counts every update.
	us := make([]stream.Update, 0, 2*combineMin)
	for i := range combineMin {
		us = append(us, stream.Update{Value: uint64(i % 3), Weight: int64(i%9 - 4)})
	}
	for i := range combineMin {
		us = append(us, stream.Update{Value: uint64(i % 3), Weight: -int64(i%9 - 4)})
	}
	if !check(us) {
		t.Fatal("a cancelling batch differs from the sequential fold")
	}
	s := MustNewHashSketch(c)
	s.UpdateBatch(us)
	if s.NetCount() != 0 || s.GrossCount() == 0 || slices.ContainsFunc(s.counters, func(x int64) bool { return x != 0 }) {
		t.Fatalf("cancelling batch: net %d, gross %d, nonzero counters %v", s.NetCount(), s.GrossCount(), s.counters)
	}
}

// Property: the estimate's Total always equals the sum of its reported
// components, and the no-skim estimate is pure sparse×sparse.
func TestQuickDecompositionConsistency(t *testing.T) {
	c := cfg(3, 16, 11)
	f := func(v1 []uint16, w1 []int8, v2 []uint16, w2 []int8) bool {
		fs := MustNewHashSketch(c)
		gs := MustNewHashSketch(c)
		stream.Apply(miniStream(v1, w1), fs)
		stream.Apply(miniStream(v2, w2), gs)
		est, err := EstimateJoin(fs, gs, 512, nil)
		if err != nil {
			return false
		}
		if est.Total != est.DenseDense+est.DenseSparse+est.SparseDense+est.SparseSparse {
			return false
		}
		raw, err := EstimateJoin(fs, gs, 512, &Options{NoSkim: true})
		if err != nil {
			return false
		}
		return raw.Total == raw.SparseSparse && raw.DenseDense == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips arbitrary sketch states exactly.
func TestQuickMarshalRoundTrip(t *testing.T) {
	c := cfg(3, 16, 5)
	f := func(vals []uint16, weights []int8) bool {
		s := MustNewHashSketch(c)
		stream.Apply(miniStream(vals, weights), s)
		blob, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		var r HashSketch
		if err := r.UnmarshalBinary(blob); err != nil {
			return false
		}
		for j := 0; j < 3; j++ {
			for k := 0; k < 16; k++ {
				if s.counters[j*s.cfg.Buckets+k] != r.counters[j*r.cfg.Buckets+k] {
					return false
				}
			}
		}
		return r.NetCount() == s.NetCount() && r.GrossCount() == s.GrossCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: a single-value stream is always estimated exactly, whatever
// its (non-zero) frequency — ξ(v)² = 1 makes collisions irrelevant when
// only one value exists.
func TestQuickSingleValueExact(t *testing.T) {
	c := cfg(5, 8, 13)
	f := func(vRaw uint16, wRaw int8) bool {
		v := uint64(vRaw)
		w := int64(wRaw)
		if w == 0 {
			w = 3
		}
		s := MustNewHashSketch(c)
		s.Update(v, w)
		return s.PointEstimate(v) == w && s.SelfJoinEstimate() == w*w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
