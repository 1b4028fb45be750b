package core_test

import (
	"fmt"

	"skimsketch/internal/core"
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
