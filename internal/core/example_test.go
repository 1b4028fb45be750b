package core_test

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// The full skimmed-sketch flow on a toy stream: sketch, skim, estimate.
func ExampleEstimateJoin() {
	cfg := core.Config{Tables: 5, Buckets: 64, Seed: 1}
	f := core.MustNewHashSketch(cfg)
	g := core.MustNewHashSketch(cfg) // same cfg ⇒ join pair

	// F: one dominant value plus light mass; G: overlapping.
	f.Update(7, 1000)
	f.Update(8, 2)
	f.Update(9, 3)
	g.Update(7, 500)
	g.Update(9, 4)

	est, err := core.EstimateJoin(f, g, 64, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("estimate:", est.Total)
	fmt.Println("dense values skimmed from F:", est.DenseCountF)
	// Output:
	// estimate: 500012
	// dense values skimmed from F: 1
}

// Point estimation (the COUNTSKETCH primitive inside SKIMDENSE).
func ExampleHashSketch_PointEstimate() {
	s := core.MustNewHashSketch(core.Config{Tables: 5, Buckets: 32, Seed: 2})
	s.Update(10, 42)
	s.Update(10, -2) // deletes fold in like any other update
	fmt.Println(s.PointEstimate(10))
	// Output: 40
}

// Self-join size (the second frequency moment F2, the paper's
// COUNT(F ⋈ F)) from one sketch, and the dense values SKIMDENSE extracts
// from it: on a Zipf(1.2) stream a handful of values carry most of F2,
// and skimming them leaves a residual with a far smaller self-join.
func ExampleHashSketch_SelfJoinEstimate() {
	const (
		domain    = 1 << 12
		streamLen = 50000
	)
	sketch := core.MustNewHashSketch(core.Config{Tables: 7, Buckets: 512, Seed: 3})
	exact := stream.NewFreqVector()
	gen, err := workload.NewZipf(domain, 1.2, 17)
	if err != nil {
		panic(err)
	}
	stream.Apply(workload.MakeStream(gen, streamLen), exact, sketch)

	estF2, trueF2 := sketch.SelfJoinEstimate(), exact.SelfJoinSize()
	fmt.Printf("F2: exact %d, estimate %d, sym-error %.4f\n",
		trueF2, estF2, stats.SymmetricError(float64(estF2), float64(trueF2)))
	fmt.Printf("synopsis: %d words for %d elements over domain %d\n", sketch.Words(), streamLen, domain)

	residual := sketch.Clone()
	threshold := sketch.DefaultSkimThreshold()
	dense, err := residual.SkimDense(domain, threshold)
	if err != nil {
		panic(err)
	}
	var denseF2 int64
	for _, w := range dense {
		denseF2 += w * w
	}
	fmt.Printf("SKIMDENSE at threshold %d: %d values carrying %.0f%% of F2\n",
		threshold, len(dense), 100*float64(denseF2)/float64(trueF2))
	fmt.Printf("residual self-join estimate: %d\n", residual.SelfJoinEstimate())
	// Output:
	// F2: exact 163724054, estimate 163698134, sym-error 0.0002
	// synopsis: 3584 words for 50000 elements over domain 4096
	// SKIMDENSE at threshold 2210: 3 values carrying 91% of F2
	// residual self-join estimate: 13900189
}
