package topk_test

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/topk"
)

// Online heavy hitters: the tracker maintains the top-k while the
// stream flows, with no end-of-stream scan.
func Example() {
	tr, err := topk.New(2, core.Config{Tables: 5, Buckets: 64, Seed: 9})
	if err != nil {
		panic(err)
	}
	tr.Update(100, 50)
	tr.Update(200, 30)
	tr.Update(300, 5) // never makes the top 2
	for _, e := range tr.Top() {
		fmt.Printf("value %d ≈ %d\n", e.Value, e.Estimate)
	}
	// Output:
	// value 100 ≈ 50
	// value 200 ≈ 30
}
