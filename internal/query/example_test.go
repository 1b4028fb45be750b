package query_test

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/query"
)

// SUM over a join: measures ride on the update weights.
func ExampleSumEstimator() {
	s, err := query.NewSumEstimator(256, core.Config{Tables: 5, Buckets: 64, Seed: 3})
	if err != nil {
		panic(err)
	}
	s.UpdateFact(42)        // a subscriber to product 42
	s.UpdateFact(42)        // another
	s.UpdateMeasure(42, 99) // a sale worth 99
	est, err := s.Estimate()
	if err != nil {
		panic(err)
	}
	fmt.Println("SUM ≈", est.Total)
	// Output: SUM ≈ 198
}
