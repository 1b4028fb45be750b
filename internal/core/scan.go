package core

import (
	"slices"
	"sync"

	"skimsketch/internal/hashfam"
	"skimsketch/internal/stream"
)

// The SKIMDENSE domain scan (Figure 3, Steps 1–7), shared by every
// full-domain extraction: SkimDense and its parallel variant,
// EstimateJoin and EstimateSelfJoin. One pass tests one or two sketches
// that share a Config, each against its own threshold, and yields
// exactly the dense set {v : median_j C[j][h_j(v)]·ξ_j(v) ≥ T} of each.
// Sketches with one Config share h_j and ξ_j, so EstimateJoin scans
// [0, m) once, not once per synopsis. The test is PointEstimate's: d
// estimates through the hashfam.Row kernel and their lower median. The
// scan is cheap because few values reach that test:
//
//   - The hot mask. Bucket k of table j is hot iff some sketch's counter
//     there has c ≥ T or c ≤ −T; the test never negates c, which would
//     overflow at math.MinInt64. A value whose bucket in table j is cold
//     has an estimate below T there, whatever ξ_j(v) is: a miss for
//     every sketch. The mask is built once per scan and shared by every
//     worker range.
//   - The superset argument. With mid = ⌊(d−1)/2⌋, the lower median of d
//     estimates (index mid of the sorted order) is ≥ T only if at most
//     mid of them are below T. So a qualifying value has a hot bucket in
//     at least one of any mid+1 tables, and the values with a hot bucket
//     in some chosen mid+1 tables are a superset of the dense set.
//   - The candidates. The scan chooses the mid+1 tables with the fewest
//     hot buckets and, for each hot bucket k of table j, lists the
//     values in the range whose bucket in table j is k. The bucket hash
//     is invertible (hashfam.Preimages), so the listing costs one step
//     per preimage after an O(log p) search for the first, and the
//     candidates are (hot buckets in the chosen tables)·m/b values, not
//     m. A candidate whose bucket is hot in an earlier chosen table was
//     already listed there and is skipped, so each is considered once.
//   - The reject. A candidate cold in more than mid tables of the mask
//     is below T for every sketch, so it is dropped after a bucket hash
//     and a mask read per table, coldest first, without its signs,
//     counters or median. At the answer_m20 shape 6,112 of 2^20 values
//     are listed and 3 are tested; the scan costs O(m·d) only when
//     every bucket is hot.

// scanDomain runs the extraction test over [0, domain) for sketches
// sharing one Config, partitioned into disjoint contiguous value ranges
// across workers goroutines, and returns each sketch's dense vector. It
// only reads the sketches. The plan is built once and every range reads
// it; ranges are disjoint, so merging the workers' vectors is a plain
// union and the result is independent of workers.
func scanDomain(sks []*HashSketch, thrs []int64, domain uint64, workers int) []stream.FreqVector {
	pl := newScanPlan(sks, thrs)
	w := resolveWorkers(workers)
	if uint64(w) > domain {
		w = int(domain)
	}
	w = max(w, 1)
	parts := make([][]stream.FreqVector, w)
	chunk, rem := domain/uint64(w), domain%uint64(w)
	var wg sync.WaitGroup
	lo := uint64(0)
	for i := range parts {
		hi := lo + chunk
		if uint64(i) < rem {
			hi++
		}
		parts[i] = make([]stream.FreqVector, len(sks))
		for s := range sks {
			parts[i][s] = stream.NewFreqVector()
		}
		wg.Add(1)
		go func(lo, hi uint64, outs []stream.FreqVector) {
			defer wg.Done()
			pl.scan(lo, hi, outs)
		}(lo, hi, parts[i])
		lo = hi
	}
	wg.Wait()
	dense := parts[0]
	for _, p := range parts[1:] {
		for s, vec := range p {
			for v, est := range vec {
				dense[s][v] = est
			}
		}
	}
	return dense
}

// scanPlan is what a scan derives from its sketches and thresholds
// alone: the hot mask and the tables in the order candidates are listed
// and checked. It is read-only once built.
type scanPlan struct {
	sks   []*HashSketch
	thrs  []int64
	b     int
	mid   int    // ⌊(d−1)/2⌋: a value with more misses is dense nowhere
	hot   []bool // bucket k of table j is hot iff hot[j*b+k]
	order []int  // every table, fewest hot buckets first
	empty int    // order[:empty] have no hot bucket
}

func newScanPlan(sks []*HashSketch, thrs []int64) *scanPlan {
	d, b := sks[0].cfg.Tables, sks[0].cfg.Buckets
	pl := &scanPlan{sks: sks, thrs: thrs, b: b, mid: (d - 1) / 2, hot: make([]bool, d*b), order: make([]int, d)}
	hotIn := make([]int, d)
	for k := range pl.hot {
		for i, sk := range sks {
			if c, t := sk.counters[k], thrs[i]; c >= t || c <= -t {
				pl.hot[k] = true
				hotIn[k/b]++
				break
			}
		}
	}
	for j := range pl.order {
		pl.order[j] = j
	}
	slices.SortStableFunc(pl.order, func(x, y int) int { return hotIn[x] - hotIn[y] })
	for pl.empty < d && hotIn[pl.order[pl.empty]] == 0 {
		pl.empty++
	}
	return pl
}

// tested reports whether the candidate x in GF(p), listed under table
// order[i], gets the exact test. It does not if an earlier listing table
// has it in a hot bucket (it was listed there), or if its bucket is cold
// in more than mid tables: a cold bucket is a miss for every sketch, so
// each sketch's lower median is then below T. Tables order[:i] are cold
// for it and order[i] is hot; the rest are read coldest first, until
// the misses exceed mid or the hits reach d − mid, which leaves at most
// mid misses.
func (pl *scanPlan) tested(x uint64, i int) bool {
	for _, e := range pl.order[pl.empty:i] {
		if pl.hotAt(e, x) {
			return false
		}
	}
	misses, hits := i, 1
	for _, e := range pl.order[i+1:] {
		if pl.hotAt(e, x) {
			if hits++; hits >= len(pl.order)-pl.mid {
				return true
			}
		} else if misses++; misses > pl.mid {
			return false
		}
	}
	return true
}

// hotAt reports whether the bucket of x in GF(p) is hot in table j.
func (pl *scanPlan) hotAt(j int, x uint64) bool {
	return pl.hot[j*pl.b+pl.sks[0].rows[j].H.Bucket(x, pl.b)]
}

// each calls visit once for every value in [lo, hi) that gets the exact
// test. The listing tables are order[empty:mid+1], the coldest mid+1
// but those with no hot bucket.
func (pl *scanPlan) each(lo, hi uint64, visit func(v uint64)) {
	rows, b := pl.sks[0].rows, pl.b
	for i := pl.empty; i <= pl.mid; i++ {
		j := pl.order[i]
		// v in [q·p, (q+1)·p) reduces to x = v − q·p, so [lo, hi) is one
		// span of the field per multiple of p it reaches.
		for v := lo; v < hi; {
			x0 := v % hashfam.MersennePrime
			span := min(hi-v, hashfam.MersennePrime-x0)
			pre := rows[j].Preimages(uint64(b), x0, x0+span-1)
			base := v - x0
			for k, isHot := range pl.hot[j*b : (j+1)*b] {
				if !isHot {
					continue
				}
				pre.Each(uint64(k), func(x uint64) {
					if pl.tested(x, i) {
						visit(base + x)
					}
				})
			}
			v += span
		}
	}
}

// scan runs the exact test on every value each lists in [lo, hi),
// recording each sketch's qualifying estimates in outs. Sketch i's lower
// median is ≥ T iff at least d − mid of its estimates are, so the
// median is taken only for the estimate it stores. The buffers are
// allocated once per range, so the per-value work allocates nothing.
func (pl *scanPlan) scan(lo, hi uint64, outs []stream.FreqVector) {
	d, rows, nb := len(pl.order), pl.sks[0].rows, uint64(pl.b)
	ests := make([]int64, len(pl.sks)*d) // sketch i's estimates at ests[i*d:]
	scratch := make([]int64, d)
	pl.each(lo, hi, func(v uint64) {
		p := hashfam.PowersOf(v)
		for j := range rows {
			k, sign := rows[j].At(p, nb)
			for i, sk := range pl.sks {
				ests[i*d+j] = sk.counters[j*pl.b+k] * sign
			}
		}
		for i, thr := range pl.thrs {
			e, hits := ests[i*d:(i+1)*d], 0
			for _, est := range e {
				if est >= thr {
					hits++
				}
			}
			if hits >= d-pl.mid {
				outs[i][v] = medianScratch(e, scratch)
			}
		}
	})
}

// skim is SKIMDENSE for sketches sharing one Config: one scan extracts
// every sketch's dense vector, then each is subtracted from its sketch
// (Steps 8–9).
func skim(sks []*HashSketch, thrs []int64, domain uint64, workers int) ([]stream.FreqVector, error) {
	for _, thr := range thrs {
		if thr <= 0 {
			return nil, errSkimThreshold(thr)
		}
	}
	dense := scanDomain(sks, thrs, domain, workers)
	for i, sk := range sks {
		sk.subtract(dense[i])
	}
	return dense, nil
}
