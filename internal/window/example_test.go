package window_test

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/window"
)

// A sliding window forgets: after enough churn, an old value's estimate
// decays to (near) zero while a landmark sketch would keep it forever.
func ExampleWindow() {
	cfg := core.Config{Tables: 5, Buckets: 64, Seed: 3}
	w := window.MustNew(100, 4, cfg) // last ~100 elements, 4 buckets

	for i := 0; i < 50; i++ {
		w.Update(7, 1) // early burst
	}
	for i := 0; i < 300; i++ {
		w.Update(uint64(i%16)+20, 1) // later churn pushes the burst out
	}
	// 350 updates = 14 full buckets; the ring retains 3 full buckets
	// plus the (empty, just-rotated) current one: the burst is gone.
	fmt.Println("estimate for expired value:", w.Combined().PointEstimate(7))
	// Output:
	// estimate for expired value: 0
}
