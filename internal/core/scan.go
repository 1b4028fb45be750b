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
//     has an estimate below T there, whatever ξ_j(v) is.
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
//     already listed there and is skipped, so each gets the exact test
//     once, and the scan costs O(m·d) only when every bucket is hot.

// scanDomain runs the extraction test over [0, domain) for sketches
// sharing one Config, partitioned into disjoint contiguous value ranges
// across workers goroutines, and returns each sketch's dense vector. It
// only reads the sketches. Ranges are disjoint, so merging the workers'
// vectors is a plain union and the result is independent of workers.
func scanDomain(sks []*HashSketch, thrs []int64, domain uint64, workers int) []stream.FreqVector {
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
			scanRange(sks, thrs, lo, hi, outs)
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

// scanRange runs the extraction test over [lo, hi), recording each
// sketch's qualifying estimates in outs. Its buffers are allocated once
// per range, so the per-candidate work allocates nothing.
func scanRange(sks []*HashSketch, thrs []int64, lo, hi uint64, outs []stream.FreqVector) {
	d, b := sks[0].cfg.Tables, sks[0].cfg.Buckets
	rows, nb := sks[0].rows, uint64(b)
	hot := make([]bool, d*b)
	hotIn := make([]int, d)
	for k := range hot {
		for i, sk := range sks {
			if c, t := sk.counters[k], thrs[i]; c >= t || c <= -t {
				hot[k] = true
				hotIn[k/b]++
				break
			}
		}
	}
	// Any mid+1 tables give a superset; the coldest list the fewest values.
	tables := make([]int, d)
	for j := range tables {
		tables[j] = j
	}
	slices.SortStableFunc(tables, func(x, y int) int { return hotIn[x] - hotIn[y] })
	tables = slices.DeleteFunc(tables[:(d-1)/2+1], func(j int) bool { return hotIn[j] == 0 })

	ests := make([]int64, len(sks)*d) // sketch i's estimates at ests[i*d:]
	scratch := make([]int64, d)
	test := func(v uint64) {
		p := hashfam.PowersOf(v)
		for j := range rows {
			k, sign := rows[j].At(p, nb)
			for i, sk := range sks {
				ests[i*d+j] = sk.counters[j*b+k] * sign
			}
		}
		for i := range sks {
			if est := medianScratch(ests[i*d:(i+1)*d], scratch); est >= thrs[i] {
				outs[i][v] = est
			}
		}
	}
	for n, j := range tables {
		// v in [q·p, (q+1)·p) reduces to x = v − q·p, so [lo, hi) is one
		// span of the field per multiple of p it reaches.
		for v := lo; v < hi; {
			x0 := v % hashfam.MersennePrime
			span := min(hi-v, hashfam.MersennePrime-x0)
			pre := rows[j].Preimages(nb, x0, x0+span-1)
			base := v - x0
			for k, isHot := range hot[j*b : (j+1)*b] {
				if !isHot {
					continue
				}
				pre.Each(uint64(k), func(x uint64) {
					for _, e := range tables[:n] {
						if hot[e*b+rows[e].H.Bucket(x, b)] {
							return // listed under table e
						}
					}
					test(base + x)
				})
			}
			v += span
		}
	}
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
