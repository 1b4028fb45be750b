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
// Every hash comes from the hashfam.Row kernel, the one the update and
// PointEstimate use. Three things make the scan cheap, and none changes
// a result:
//
//   - Joint. Sketches with one Config share h_j and ξ_j, so the pass
//     computes a value's powers and buckets once and tests every
//     sketch's counters; EstimateJoin scans [0, m) once, not once per
//     synopsis.
//   - Signs only where they matter. A counter c with |c| < T misses
//     whatever ξ_j(v) is, so table j's sign is evaluated, at most once,
//     only when some live sketch's counter has c ≥ T or c ≤ −T. The test
//     never negates c, which would overflow at math.MinInt64.
//   - Early exit. The lower median of d estimates (index ⌊(d−1)/2⌋ of
//     the sorted order) is ≥ T iff at most ⌊(d−1)/2⌋ of them are < T.
//     Once more tables than that miss, for every sketch in the pass, the
//     value is rejected and the remaining tables are not evaluated. A
//     sketch that survives all d tables qualifies; only then are its d
//     estimates recomputed with Row.At and their median taken.

// scanSide is one sketch's state in a scan: its counters, threshold and
// output, the miss count of the current value, and its estimates when
// it survives.
type scanSide struct {
	counters []int64
	thr      int64
	out      stream.FreqVector

	ests []int64
	miss int // tables with estimate < thr
	live bool
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
	rows := sks[0].rows
	scratch := make([]int64, d)
	nb := uint64(b)
	for v := lo; v < hi; v++ {
		p := hashfam.PowersOf(v)
		for i := range sides {
			sides[i].miss, sides[i].live = 0, true
		}
		live := len(sides)
		for j := 0; j < d && live > 0; j++ {
			k := j*b + rows[j].Bucket(p, nb)
			var sign int64 // 0 until some counter needs it
			for i := range sides {
				sd := &sides[i]
				if !sd.live {
					continue
				}
				if c := sd.counters[k]; c >= sd.thr || c <= -sd.thr {
					if sign == 0 {
						sign = rows[j].Sign(p)
					}
					if c*sign >= sd.thr {
						continue
					}
				}
				if sd.miss++; sd.miss > mid {
					sd.live = false
					live--
				}
			}
		}
		if live == 0 {
			continue
		}
		for j := range rows {
			k, sign := rows[j].At(p, nb)
			for i := range sides {
				if sd := &sides[i]; sd.live {
					sd.ests[j] = sd.counters[j*b+k] * sign
				}
			}
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
