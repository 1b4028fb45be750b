package window_test

import (
	"fmt"

	"skimsketch/internal/core"
	"skimsketch/internal/window"
	"skimsketch/internal/workload"
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

// A landmark (whole-history) sketch answers "how correlated have these
// streams ever been"; a window answers "how correlated are they now".
// Two services serve the same customer ids for four epochs; then B
// moves to a disjoint half of the id space. The windowed estimate
// collapses within one window of the move while the landmark keeps
// averaging history. Both go through core.EstimateJoin, as the engine's
// answers do.
func ExampleWindow_drift() {
	const (
		domain    = 1 << 14
		windowLen = 10000
		buckets   = 4 // expiry in steps of windowLen/buckets
		epochLen  = 5000
		epochs    = 8
	)
	cfg := core.Config{Tables: 7, Buckets: 1024, Seed: 5}
	landA, landB := core.MustNewHashSketch(cfg), core.MustNewHashSketch(cfg)
	winA, winB := window.MustNew(windowLen, buckets, cfg), window.MustNew(windowLen, buckets, cfg)

	fmt.Println("epoch  phase     landmark  windowed")
	for e := 1; e <= epochs; e++ {
		ga, err := workload.NewZipf(domain/2, 1.1, int64(e))
		if err != nil {
			panic(err)
		}
		gb, err := workload.NewZipf(domain/2, 1.1, int64(e)+100)
		if err != nil {
			panic(err)
		}
		phase, shift := "shared", uint64(0)
		if e > epochs/2 {
			phase, shift = "migrated", domain/2
		}
		for i := 0; i < epochLen; i++ {
			a, b := ga.Next(), gb.Next()+shift
			landA.Update(a, 1)
			landB.Update(b, 1)
			winA.Update(a, 1)
			winB.Update(b, 1)
		}
		land, err := core.EstimateJoin(landA, landB, domain, nil)
		if err != nil {
			panic(err)
		}
		win, err := core.EstimateJoin(winA.Combined(), winB.Combined(), domain, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%5d  %-8s  %8d  %8d\n", e, phase, land.Total, win.Total)
	}
	fmt.Printf("windowed synopsis: %d words per stream\n", winA.Words())
	// Output:
	// epoch  phase     landmark  windowed
	//     1  shared      882343    882343
	//     2  shared     3568567   2006088
	//     3  shared     7899434   1934591
	//     4  shared    13942638   1914821
	//     5  migrated  17311949    610951
	//     6  migrated  20752208     -1113
	//     7  migrated  24141679       -22
	//     8  migrated  27703195     -1357
	// windowed synopsis: 28672 words per stream
}
