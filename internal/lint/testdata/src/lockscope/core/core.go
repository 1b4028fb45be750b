// Package core is a fixture stand-in for skimsketch/internal/core: the
// lockscope analyzer matches entry points by package-path tail and
// name prefix, so these signatures are all it needs.
package core

// Sketch mimics the hash-sketch synopsis.
type Sketch struct {
	counters []int64
}

// Clone is a cheap snapshot — never flagged.
func (s *Sketch) Clone() *Sketch {
	c := make([]int64, len(s.counters))
	copy(c, s.counters)
	return &Sketch{counters: c}
}

// Update is the cheap per-element fold — never flagged.
func (s *Sketch) Update(v uint64, w int64) {}

// SkimDense is an O(domain) skim scan — an expensive entry point.
func (s *Sketch) SkimDense(domain uint64, threshold int64) map[uint64]int64 {
	return nil
}

// SkimDenseParallel matches the SkimDense prefix too.
func (s *Sketch) SkimDenseParallel(domain uint64, threshold int64, workers int) map[uint64]int64 {
	return nil
}

// EstimateJoin is the O(domain·tables) join estimator — expensive.
func EstimateJoin(f, g *Sketch, domain uint64) int64 { return 0 }
