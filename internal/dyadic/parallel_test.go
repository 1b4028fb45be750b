package dyadic

import (
	"bytes"
	"testing"

	"skimsketch/internal/core"
	"skimsketch/internal/workload"
)

// buildPair returns two identically-fed hierarchies (same bits, config,
// stream), so one can be skimmed sequentially and the other in parallel
// and the results compared counter by counter.
func buildPair(t *testing.T, bits int, c core.Config, n int) (*Hierarchy, *Hierarchy) {
	t.Helper()
	a, err := New(bits, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(bits, c)
	if err != nil {
		t.Fatal(err)
	}
	z, err := workload.NewZipf(1<<uint(bits), 1.3, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range workload.MakeStream(z, n) {
		a.Update(u.Value, u.Weight)
		b.Update(u.Value, u.Weight)
	}
	return a, b
}

func hierarchiesEqual(t *testing.T, a, b *Hierarchy) {
	t.Helper()
	for l := range a.levels {
		if !bytes.Equal(counterBytes(a.levels[l]), counterBytes(b.levels[l])) {
			t.Fatalf("level %d counters differ", l)
		}
	}
}

// The parallel dyadic skim must extract the identical dense vector and
// leave every level's residual counters identical to the sequential
// skim's, for several worker counts including the per-CPU auto mode.
func TestSkimParallelMatchesSequential(t *testing.T) {
	c := cfg(5, 64, 11)
	for _, workers := range []int{2, 4, 9, -1} {
		seq, par := buildPair(t, 12, c, 30000)
		seqDense, err := seq.Skim(0)
		if err != nil {
			t.Fatal(err)
		}
		parDense, err := par.SkimParallel(0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(seqDense) != len(parDense) {
			t.Fatalf("workers=%d: dense sizes differ: %d vs %d", workers, len(seqDense), len(parDense))
		}
		for v, w := range seqDense {
			if parDense[v] != w {
				t.Fatalf("workers=%d: dense[%d] = %d, want %d", workers, v, parDense[v], w)
			}
		}
		hierarchiesEqual(t, seq, par)
	}
}

// The parallel candidate descent must return the same candidates in the
// same order as the sequential descent.
func TestCandidateValuesParallelOrder(t *testing.T) {
	c := cfg(5, 64, 3)
	seq, _ := buildPair(t, 10, c, 20000)
	thr := seq.DefaultSkimThreshold()
	want := seq.candidateValues(thr, 1)
	for _, workers := range []int{2, 3, 8} {
		got := seq.candidateValues(thr, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: candidate[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// EstimateJoinParallel must reproduce EstimateJoin's full decomposed
// estimate exactly.
func TestEstimateJoinParallelMatches(t *testing.T) {
	c := cfg(5, 64, 29)
	f1, f2 := buildPair(t, 12, c, 25000)
	g1, g2 := buildPair(t, 12, c, 25000)
	seq, err := EstimateJoin(f1, g1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := EstimateJoinParallel(f2, g2, 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("estimates differ: %+v vs %+v", seq, par)
	}
	if _, err := EstimateJoinParallel(f2, MustNew(12, cfg(5, 64, 99)), 0, 0, 4); err == nil {
		t.Fatal("expected pairing error")
	}
}
