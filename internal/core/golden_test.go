package core

import (
	"testing"

	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// Golden decomposed estimates at the answer_m20 shape: d = 7, b = 2048,
// zipf(1.0) streams of 200,000 inserts over m = 2^20. The literals were
// recorded from the scan that ran a full Horner evaluation of every
// table at every value, one pass per sketch, so they pin the joint
// preimage-enumerating skim to that reference: a change to which values
// are extracted, or to their estimates, moves at least one field. The
// low-threshold cases extract ~100 dense values per stream rather
// than 3.

const goldenDomain = 1 << 20

func goldenPair(t *testing.T, seedF, seedG int64) (*HashSketch, *HashSketch) {
	t.Helper()
	c := cfg(7, 2048, 9)
	f, g := MustNewHashSketch(c), MustNewHashSketch(c)
	for _, side := range []struct {
		s    *HashSketch
		seed int64
	}{{f, seedF}, {g, seedG}} {
		z, err := workload.NewZipf(goldenDomain, 1.0, side.seed)
		if err != nil {
			t.Fatal(err)
		}
		stream.Apply(workload.MakeStream(z, 200000), side.s)
	}
	return f, g
}

func TestGoldenEstimateJoinM20(t *testing.T) {
	type golden struct {
		tf, tg   int64 // 0 is the default threshold
		want     Estimate
		wantSelf SelfJoinDecomposition
	}
	cases := []struct {
		seedF, seedG int64
		runs         []golden
	}{
		{1, 2, []golden{
			{0, 0,
				Estimate{Total: 318566867, DenseDense: 264153806, DenseSparse: -18500, SparseDense: -48974, SparseSparse: 54480535, ThresholdF: 4420, ThresholdG: 4420, DenseCountF: 3, DenseCountG: 3},
				SelfJoinDecomposition{Total: 318597382, DenseDense: 264130949, DenseSparse: -49301, SparseSparse: 54565035, Threshold: 4420, DenseCount: 3}},
			{150, 200,
				Estimate{Total: 318378173, DenseDense: 315956066, DenseSparse: 770788, SparseDense: -337615, SparseSparse: 1988934, ThresholdF: 150, ThresholdG: 200, DenseCountF: 107, DenseCountG: 71},
				SelfJoinDecomposition{Total: 317759012, DenseDense: 316910851, DenseSparse: -800872, SparseSparse: 2449905, Threshold: 150, DenseCount: 107}},
		}},
		{3, 4, []golden{
			{0, 0,
				Estimate{Total: 313910944, DenseDense: 259333995, DenseSparse: 47367, SparseDense: -27635, SparseSparse: 54557217, ThresholdF: 4420, ThresholdG: 4420, DenseCountF: 3, DenseCountG: 3},
				SelfJoinDecomposition{Total: 311079722, DenseDense: 256177666, DenseSparse: -26598, SparseSparse: 54955252, Threshold: 4420, DenseCount: 3}},
			{150, 200,
				Estimate{Total: 313399633, DenseDense: 311297749, DenseSparse: 627764, SparseDense: -681366, SparseSparse: 2155486, ThresholdF: 150, ThresholdG: 200, DenseCountF: 101, DenseCountG: 71},
				SelfJoinDecomposition{Total: 310015852, DenseDense: 309360644, DenseSparse: -897004, SparseSparse: 2449216, Threshold: 150, DenseCount: 101}},
		}},
	}
	for _, tc := range cases {
		f, g := goldenPair(t, tc.seedF, tc.seedG)
		for _, run := range tc.runs {
			for _, workers := range []int{1, 2} {
				got, err := EstimateJoin(f, g, goldenDomain, &Options{ThresholdF: run.tf, ThresholdG: run.tg, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got != run.want {
					t.Errorf("seeds %d/%d thresholds %d/%d workers %d:\n got %#v\nwant %#v",
						tc.seedF, tc.seedG, run.tf, run.tg, workers, got, run.want)
				}
			}
			self, err := f.EstimateSelfJoin(goldenDomain, &SelfJoinEstimateOpts{Threshold: run.tf})
			if err != nil {
				t.Fatal(err)
			}
			if self != run.wantSelf {
				t.Errorf("seed %d threshold %d self-join:\n got %#v\nwant %#v", tc.seedF, run.tf, self, run.wantSelf)
			}
		}
	}
}
