package core

import (
	"sync"

	"skimsketch/internal/hashfam"
	"skimsketch/internal/stream"
)

// The SKIMDENSE domain scan (Figure 3, Steps 1–7), shared by every
// full-domain extraction: SkimDense and its parallel variant,
// EstimateJoin and EstimateSelfJoin. One pass tests one or two sketches
// that share a Config, each against its own threshold, and yields
// exactly the dense set {v : median_j C[j][h_j(v)]·ξ_j(v) ≥ T} of each.
// Three things make it cheap, and none changes a result:
//
//   - Joint. Sketches with one Config share h_j and ξ_j, so the pass
//     computes them once per value and tests every sketch's counters;
//     EstimateJoin scans [0, m) once, not once per synopsis.
//   - Stepped. A worker visits consecutive values, so h_j and ξ_j come
//     from hashfam's range walkers, which step the polynomials exactly
//     in GF(p) (one addmod for h_j, three for ξ_j) instead of a Horner
//     evaluation per value.
//   - Early exit. The lower median of d estimates (index ⌊(d−1)/2⌋ of
//     the sorted order) is ≥ T iff at most ⌊(d−1)/2⌋ of them are < T.
//     Once more tables than that miss, for every sketch in the pass, the
//     value is rejected: the remaining tables skip the bucket reduction
//     and the counter loads, and only their walkers step. A sketch that
//     survives all d tables qualifies, and only then is its median
//     computed.

// scanSide is one sketch's state in a scan: its counters, threshold and
// output, and the per-table estimates and miss counts of the current
// value.
type scanSide struct {
	counters []int64
	thr      int64
	out      stream.FreqVector

	ests []int64
	miss int // tables with estimate < thr
	live bool
}

// tableWalk steps table j's bucket hash and sign family together.
type tableWalk struct {
	h hashfam.PairwiseWalker
	x hashfam.FourWiseWalker
}

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
// sketch's qualifying estimates in outs. Its per-range buffers are
// allocated once, so the per-value loop allocates nothing.
func scanRange(sks []*HashSketch, thrs []int64, lo, hi uint64, outs []stream.FreqVector) {
	d, b := sks[0].cfg.Tables, sks[0].cfg.Buckets
	// Miss budget: more than mid tables below T rules out a median ≥ T.
	mid := (d - 1) / 2
	sides := make([]scanSide, len(sks))
	for i, sk := range sks {
		sides[i] = scanSide{counters: sk.counters, thr: thrs[i], out: outs[i], ests: make([]int64, d)}
	}
	walks := make([]tableWalk, d)
	for j := range walks {
		r := &sks[0].rows[j]
		walks[j] = tableWalk{h: r.H.WalkFrom(lo), x: r.Xi.WalkFrom(lo)}
	}
	scratch := make([]int64, d)
	nb := uint64(b)
	for v := lo; v < hi; v++ {
		for i := range sides {
			sides[i].miss, sides[i].live = 0, true
		}
		live := len(sides)
		for j := range walks {
			tw := &walks[j]
			if live > 0 {
				k := j*b + int(tw.h.Hash()%nb)
				sign := tw.x.Sign()
				for i := range sides {
					sd := &sides[i]
					if !sd.live {
						continue
					}
					est := sd.counters[k] * sign
					sd.ests[j] = est
					if est < sd.thr {
						if sd.miss++; sd.miss > mid {
							sd.live = false
							live--
						}
					}
				}
			}
			tw.h.Next()
			tw.x.Next()
		}
		for i := range sides {
			if sd := &sides[i]; sd.live {
				sd.out[v] = medianScratch(sd.ests, scratch)
			}
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
