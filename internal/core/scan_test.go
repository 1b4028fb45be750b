package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"skimsketch/internal/hashfam"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// Model-based tests of the scan kernel against a reference that shares
// no hash code with it: the scan, PointEstimate and the update all go
// through the hashfam.Row kernel, while the reference evaluates every
// table's bucket and sign by Horner's rule (Pairwise.Bucket,
// FourWise.Sign) and takes stats.MedianInt64. The dense set is, by
// definition, {v : median_j C[j][h_j(v)]·ξ_j(v) ≥ T}.

// refDense is the reference extraction over [lo, hi).
func refDense(s *HashSketch, lo, hi uint64, thr int64) stream.FreqVector {
	d, b := s.cfg.Tables, s.cfg.Buckets
	ests := make([]int64, d)
	out := stream.NewFreqVector()
	for v := lo; v < hi; v++ {
		for j, r := range s.rows {
			ests[j] = s.counters[j*b+r.H.Bucket(v, b)] * r.Xi.Sign(v)
		}
		if est := stats.MedianInt64(ests); est >= thr {
			out[v] = est
		}
	}
	return out
}

// scanRange plans a scan of sks and runs it over [lo, hi), recording
// each sketch's dense set in outs.
func scanRange(sks []*HashSketch, thrs []int64, lo, hi uint64, outs []stream.FreqVector) {
	newScanPlan(sks, thrs).scan(lo, hi, outs)
}

// scanCase is one randomized scan: a config with any d in 1..9 (even d
// included) and any b in 1..64, two sketches over [lo, lo+span), and a
// threshold per sketch.
type scanCase struct {
	c      Config
	lo     uint64
	span   uint64
	f, g   *HashSketch
	tf, tg int64
}

// randScanCase draws a case whose range starts at base. Streams are
// skewed (a few heavy values among light noise) and signed, so every
// case has values on both sides of T and both hot and cold buckets.
func randScanCase(r *rand.Rand, base uint64) scanCase {
	c := Config{Tables: 1 + r.Intn(9), Buckets: 1 + r.Intn(64), Seed: r.Uint64()}
	span := uint64(1 + r.Intn(400))
	tc := scanCase{c: c, lo: base, span: span, f: MustNewHashSketch(c), g: MustNewHashSketch(c)}
	for _, s := range []*HashSketch{tc.f, tc.g} {
		for i := r.Intn(300); i > 0; i-- {
			w := int64(r.Intn(7) - 3)
			if r.Intn(10) == 0 {
				w *= int64(5 + r.Intn(40))
			}
			s.Update(base+uint64(r.Int63n(int64(span))), w)
		}
	}
	tc.tf, tc.tg = 1+r.Int63n(60), 1+r.Int63n(60)
	return tc
}

// Property: one- and two-sketch skims over [0, m), with any worker
// count, extract exactly the reference dense sets and leave exactly the
// reference residual counters.
func TestQuickScanMatchesPointEstimate(t *testing.T) {
	f := func(seed int64, workersRaw uint8, joint bool) bool {
		r := rand.New(rand.NewSource(seed))
		tc := randScanCase(r, 0)
		workers := int(workersRaw%6) + 1
		wantF := refDense(tc.f, 0, tc.span, tc.tf)
		wantG := refDense(tc.g, 0, tc.span, tc.tg)
		refF, refG := tc.f.Clone(), tc.g.Clone()
		refF.Subtract(wantF)
		refG.Subtract(wantG)

		fs, gs := tc.f.Clone(), tc.g.Clone()
		if joint {
			dense, err := skim([]*HashSketch{fs, gs}, []int64{tc.tf, tc.tg}, tc.span, workers)
			if err != nil || !densesEqual(dense[0], wantF) || !densesEqual(dense[1], wantG) {
				t.Logf("seed %d joint: dense sets differ", seed)
				return false
			}
			return sketchesEqual(fs, refF) && sketchesEqual(gs, refG)
		}
		dense, err := fs.SkimDenseParallel(tc.span, tc.tf, workers)
		if err != nil || !densesEqual(dense, wantF) {
			t.Logf("seed %d single: dense set differs", seed)
			return false
		}
		return sketchesEqual(fs, refF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: EstimateJoin equals the four subjoins computed from the
// reference dense sets, component for component.
func TestQuickEstimateJoinMatchesReferenceSkim(t *testing.T) {
	f := func(seed int64, workersRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tc := randScanCase(r, 0)
		fd := refDense(tc.f, 0, tc.span, tc.tf)
		gd := refDense(tc.g, 0, tc.span, tc.tg)
		fs, gs := tc.f.Clone(), tc.g.Clone()
		fs.Subtract(fd)
		gs.Subtract(gd)
		want, err := EstimateJoinSkimmed(fs, gs, fd, gd)
		if err != nil {
			return false
		}
		want.ThresholdF, want.ThresholdG = tc.tf, tc.tg
		got, err := EstimateJoin(tc.f, tc.g, tc.span, &Options{ThresholdF: tc.tf, ThresholdG: tc.tg, Workers: int(workersRaw%4) + 1})
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A scan range may start anywhere: each value is reduced into GF(p) on
// its own, so ranges that cross 0, p, 2p or run up to the top of the
// uint64 range must match the reference value for value.
func TestScanRangeAcrossFieldWrap(t *testing.T) {
	p := hashfam.MersennePrime
	r := rand.New(rand.NewSource(11))
	for _, base := range []uint64{0, p - 200, p - 1, p, 2*p - 150, 5*p - 3, math.MaxUint64 - 400} {
		for trial := 0; trial < 40; trial++ {
			tc := randScanCase(r, base)
			hi := tc.lo + tc.span
			outs := []stream.FreqVector{stream.NewFreqVector(), stream.NewFreqVector()}
			scanRange([]*HashSketch{tc.f, tc.g}, []int64{tc.tf, tc.tg}, tc.lo, hi, outs)
			if !densesEqual(outs[0], refDense(tc.f, tc.lo, hi, tc.tf)) ||
				!densesEqual(outs[1], refDense(tc.g, tc.lo, hi, tc.tg)) {
				t.Fatalf("base %d trial %d (d=%d b=%d): scan differs from the reference", base, trial, tc.c.Tables, tc.c.Buckets)
			}
		}
	}
}

// Even d is where the miss budget is easiest to get wrong: with d = 4
// the lower median is the 2nd smallest, so ≥ T needs 3 tables, not 2.
// Dense small sketches with even d and heavy signed weights put many
// values at that boundary.
func TestScanEvenTables(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		c := Config{Tables: 2 * (1 + r.Intn(4)), Buckets: 2 + r.Intn(6), Seed: r.Uint64()}
		s := MustNewHashSketch(c)
		for i := 0; i < 40; i++ {
			s.Update(uint64(r.Intn(64)), int64(r.Intn(21)-10))
		}
		thr := 1 + r.Int63n(12)
		outs := []stream.FreqVector{stream.NewFreqVector()}
		scanRange([]*HashSketch{s}, []int64{thr}, 0, 64, outs)
		if want := refDense(s, 0, 64, thr); !densesEqual(outs[0], want) {
			t.Fatalf("trial %d d=%d: got %v, want %v", trial, c.Tables, outs[0], want)
		}
	}
}

// scanDomain alone is the read-only scan, without the subtraction.
func TestDenseValuesMatchesPointEstimate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		tc := randScanCase(r, 0)
		got := scanDomain([]*HashSketch{tc.f}, []int64{tc.tf}, tc.span, 1)[0]
		if want := refDense(tc.f, 0, tc.span, tc.tf); !densesEqual(got, want) {
			t.Fatalf("trial %d: scanDomain differs from the reference", trial)
		}
	}
}

// scanMatchesReference scans [lo, hi) jointly over sks and each sketch
// alone, and fails unless every dense set equals the reference's.
func scanMatchesReference(t *testing.T, sks []*HashSketch, thrs []int64, lo, hi uint64) {
	t.Helper()
	joint := make([]stream.FreqVector, len(sks))
	for i := range joint {
		joint[i] = stream.NewFreqVector()
	}
	scanRange(sks, thrs, lo, hi, joint)
	for i, sk := range sks {
		alone := []stream.FreqVector{stream.NewFreqVector()}
		scanRange(sks[i:i+1], thrs[i:i+1], lo, hi, alone)
		want := refDense(sk, lo, hi, thrs[i])
		if !densesEqual(joint[i], want) || !densesEqual(alone[0], want) {
			t.Fatalf("d=%d b=%d [%d, %d) sketch %d thr %d: joint %v, alone %v, reference %v",
				sk.cfg.Tables, sk.cfg.Buckets, lo, hi, i, thrs[i], joint[i], alone[0], want)
		}
	}
}

// The scan's hot mask marks a bucket when some sketch's counter there has
// c ≥ T or c ≤ −T. Hand-set counters sit on both sides of that test:
// at ±T a sign decides the estimate, at ±(T−1) the table misses whatever
// the sign, and math.MinInt64 is hot but misses for either sign (its
// product with ξ is itself). Joint scans pair every level of F with
// every level of G in the same buckets, so one side is hot while the
// other is cold. A mixed case draws each counter from the levels and
// gives G the threshold T−1, at which ±(T−1) are hot.
func TestScanSignSkipBoundaries(t *testing.T) {
	const thr, span = 5, 200
	levels := []int64{thr, -thr, thr - 1, -(thr - 1), math.MinInt64, 0}
	r := rand.New(rand.NewSource(17))
	for _, d := range []int{1, 2, 7, 9} {
		c := Config{Tables: d, Buckets: 3, Seed: uint64(40 + d)}
		f, g := MustNewHashSketch(c), MustNewHashSketch(c)
		for _, lf := range levels {
			for _, lg := range levels {
				for k := range f.counters {
					f.counters[k], g.counters[k] = lf, lg
				}
				scanMatchesReference(t, []*HashSketch{f, g}, []int64{thr, thr}, 0, span)
			}
		}
		for trial := 0; trial < 50; trial++ {
			for k := range f.counters {
				f.counters[k], g.counters[k] = levels[r.Intn(len(levels))], levels[r.Intn(len(levels))]
			}
			scanMatchesReference(t, []*HashSketch{f, g}, []int64{thr, thr - 1}, 0, span)
		}
	}
}

// The reject drops a candidate whose bucket is cold in the mask in more
// than mid tables. A bucket hot for F only is hot in the mask, so it is
// no miss there, and F's value can still be dense; G's exact test reads
// the same bucket as a miss. Value v has F's estimate T and G's T − 1 in
// d − c tables, each with no other hot bucket, and a bucket cold for
// both in the other c tables, whose other buckets are all hot for F. So
// v is listed under the coldest table, order[0], and the reject walks
// the rest: with c = mid, F's median is T; with c = mid + 1, v is
// dropped. G's median is below T either way.
func TestScanRejectAsymmetricHot(t *testing.T) {
	const thr, span, v = 5, 64, 17
	for _, d := range []int{2, 4, 7, 8} {
		mid := (d - 1) / 2
		for _, c := range []int{mid, mid + 1} {
			cf := Config{Tables: d, Buckets: 8, Seed: uint64(70 + d)}
			f, g := MustNewHashSketch(cf), MustNewHashSketch(cf)
			p := hashfam.PowersOf(v)
			for j := range f.rows {
				k, sign := f.rows[j].At(p, uint64(cf.Buckets))
				row := f.counters[j*cf.Buckets : (j+1)*cf.Buckets]
				if j >= c {
					row[k], g.counters[j*cf.Buckets+k] = thr*sign, (thr-1)*sign
					continue
				}
				for kk := range row {
					if kk != k {
						row[kk] = thr
					}
				}
			}
			sks, thrs := []*HashSketch{f, g}, []int64{thr, thr}
			if got, want := newScanPlan(sks, thrs).tested(v, 0), c <= mid; got != want {
				t.Fatalf("d=%d, %d cold tables: tested = %v, want %v", d, c, got, want)
			}
			outs := []stream.FreqVector{stream.NewFreqVector(), stream.NewFreqVector()}
			scanRange(sks, thrs, 0, span, outs)
			est, dense := outs[0][v]
			if dense != (c <= mid) || (dense && est != thr) {
				t.Fatalf("d=%d, %d cold tables: F's dense set holds v = %v (estimate %d)", d, c, dense, est)
			}
			if _, dense := outs[1][v]; dense {
				t.Fatalf("d=%d, %d cold tables: v is dense for G", d, c)
			}
			scanMatchesReference(t, sks, thrs, 0, span)
			scanMatchesReference(t, []*HashSketch{g, f}, thrs, 0, span)
		}
	}
}

// Exactness tests cannot see a weak reject: a scan that rejected nothing
// would extract the same dense sets, only slower. This pins the cost at
// benchEstimateJoin1M's shape (d = 7, b = 2048, zipf 1.0, m = 2^20): the
// values that reach the exact test are exactly those cold in the mask in
// at most mid tables, and at the default thresholds, where thousands of
// candidates are listed, at most 16 are. At an eighth of the defaults
// about a hundred values are cold in exactly mid + 1 tables, which a
// reject off by one would let through.
func TestScanRejectCost(t *testing.T) {
	const domain = 1 << 20
	c := cfg(7, 2048, 9)
	f, g := MustNewHashSketch(c), MustNewHashSketch(c)
	z1, _ := workload.NewZipf(domain, 1.0, 1)
	z2, _ := workload.NewZipf(domain, 1.0, 2)
	stream.Apply(workload.MakeStream(z1, 200000), f)
	stream.Apply(workload.MakeStream(z2, 200000), g)
	sks := []*HashSketch{f, g}
	for _, div := range []int64{1, 8} {
		pl := newScanPlan(sks, []int64{f.DefaultSkimThreshold() / div, g.DefaultSkimThreshold() / div})
		listed, want := 0, 0
		for v := uint64(0); v < domain; v++ {
			cold, isListed := 0, false
			for i, j := range pl.order {
				if !pl.hotAt(j, v) {
					cold++
				} else if i <= pl.mid {
					isListed = true
				}
			}
			if isListed {
				listed++
			}
			if cold <= pl.mid {
				want++
			}
		}
		tested := 0
		pl.each(0, domain, func(uint64) { tested++ })
		t.Logf("thresholds / %d: %d candidates listed, %d tested", div, listed, tested)
		if tested != want {
			t.Fatalf("thresholds / %d: %d values tested, want the %d cold in at most %d tables", div, tested, want, pl.mid)
		}
		if div == 1 && (listed < 1000 || tested > 16) {
			t.Fatalf("%d candidates listed, %d tested; want ≥ 1000 listed and ≤ 16 tested", listed, tested)
		}
	}
}

// fuzzThreshold maps any int64 to a positive threshold.
func fuzzThreshold(x int64) int64 {
	return max(x&math.MaxInt64, 1)
}

// FuzzScanMatchesReference checks the scan against the Horner reference
// for fuzzed d, b, thresholds and range starts, the seeds putting ranges
// near 0, p, 2p and the top of the uint64 range. Every counter is drawn
// from the levels around its sketch's threshold T (±T, ±(T−1), 0 and the
// int64 extremes), where a skipped or misread sign would show. Spans run
// up to 2^16 values, so a range holds from none to thousands of each hot
// bucket's preimages. A nonzero sparse zeroes, in each table of both
// sketches, a fraction of counters drawn from [0, sparse/256], so tables
// differ in hot counts and some have none: which tables list candidates,
// and which hits are skipped as listed by an earlier table, varies.
func FuzzScanMatchesReference(f *testing.F) {
	p := hashfam.MersennePrime
	for _, base := range []uint64{0, p - 100, p, 2*p - 7, math.MaxUint64 - 300} {
		f.Add(uint64(1), base, uint16(300), uint8(7), uint8(16), int64(5), int64(5), uint8(0))
	}
	f.Add(uint64(2), uint64(0), uint16(100), uint8(2), uint8(1), int64(1), int64(math.MaxInt64), uint8(0))
	// Crosses p; table 1 has no hot counter.
	f.Add(uint64(31), p-20000, uint16(40000), uint8(6), uint8(16), int64(5), int64(3), uint8(250))
	// Starts at p with b = 64 > 20 values, so most hot buckets have no
	// preimage in range.
	f.Add(uint64(7), p, uint16(19), uint8(6), uint8(63), int64(5), int64(5), uint8(0))
	// Ends exactly at p − 1, the last element of the field.
	f.Add(uint64(8), p-301, uint16(300), uint8(4), uint8(9), int64(4), int64(6), uint8(100))
	// d = 3, b = 4: the coldest table has one hot bucket and the next is
	// all hot, so every candidate the first lists is skipped by the second.
	f.Add(uint64(62), uint64(0), uint16(1999), uint8(2), uint8(3), int64(5), int64(5), uint8(200))
	// d = 2, 4, 7, 8 with G's threshold one below F's, so G's ±(T−1)
	// are hot for G only and F's are cold for both: the reject's miss
	// count sits at mid and mid + 1 with buckets hot for one side.
	for _, dRaw := range []uint8{1, 3, 6, 7} {
		f.Add(uint64(90+dRaw), uint64(0), uint16(2999), dRaw, uint8(15), int64(5), int64(4), uint8(120))
	}
	f.Fuzz(func(t *testing.T, seed, base uint64, spanRaw uint16, dRaw, bRaw uint8, tf, tg int64, sparse uint8) {
		c := Config{Tables: 1 + int(dRaw%9), Buckets: 1 + int(bRaw%64), Seed: seed}
		span := uint64(spanRaw) + 1
		base = min(base, math.MaxUint64-span)
		thrs := []int64{fuzzThreshold(tf), fuzzThreshold(tg)}
		r := rand.New(rand.NewSource(int64(seed)))
		sks := []*HashSketch{MustNewHashSketch(c), MustNewHashSketch(c)}
		for i, sk := range sks {
			thr := thrs[i]
			levels := []int64{thr, -thr, thr - 1, 1 - thr, 0, math.MinInt64, math.MaxInt64}
			for k := range sk.counters {
				sk.counters[k] = levels[r.Intn(len(levels))]
			}
		}
		for j := 0; sparse > 0 && j < c.Tables; j++ {
			cut := r.Intn(int(sparse) + 1)
			for _, sk := range sks {
				for k := j * c.Buckets; k < (j+1)*c.Buckets; k++ {
					if r.Intn(256) < cut {
						sk.counters[k] = 0
					}
				}
			}
		}
		scanMatchesReference(t, sks, thrs, base, base+span)
	})
}
