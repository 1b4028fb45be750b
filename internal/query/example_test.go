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

// A two-join chain aggregate COUNT(R ⋈ S ⋈ T): two join attributes,
// three streams.
func ExampleMultiChain() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	c, err := query.NewMultiChain(2, 8, 5, 9)
	must(err)
	must(c.UpdateEnd(0, 1, 2))         // r_1 = 2
	must(c.UpdateInterior(1, 1, 5, 3)) // s_{1,5} = 3
	must(c.UpdateEnd(2, 5, 4))         // t_5 = 4
	fmt.Println(c.Estimate())
	// Output: 24
}
