package core

// SelfJoinEstimateOpts tunes EstimateSelfJoin.
type SelfJoinEstimateOpts struct {
	// Threshold overrides the skim threshold; zero means the default.
	Threshold int64
	// NoSkim reduces the estimator to the raw bucket-square estimate.
	NoSkim bool
}

// SelfJoinDecomposition is a decomposed skimmed self-join (F2) estimate:
// Total = DenseDense + 2·DenseSparse + SparseSparse, mirroring
// (f_d + f_s)·(f_d + f_s) with Ĵ_dd exact.
type SelfJoinDecomposition struct {
	Total        int64
	DenseDense   int64
	DenseSparse  int64
	SparseSparse int64
	Threshold    int64
	DenseCount   int
}

// EstimateSelfJoin estimates F2 = Σ f_v² over [0, domain) with the same
// skimming decomposition as the join estimator, applied to a single
// stream: the dense self-product is exact, the dense×sparse cross term is
// estimated against the skimmed sketch, and the sparse×sparse term is the
// residual sketch's self-join estimate. On skewed streams this improves
// on the raw SelfJoinEstimate exactly as skimming improves join
// estimates. The sketch is not mutated.
func (s *HashSketch) EstimateSelfJoin(domain uint64, opts *SelfJoinEstimateOpts) (SelfJoinDecomposition, error) {
	if opts == nil {
		opts = &SelfJoinEstimateOpts{}
	}
	if opts.NoSkim {
		t := s.SelfJoinEstimate()
		return SelfJoinDecomposition{Total: t, SparseSparse: t}, nil
	}
	thr := opts.Threshold
	if thr <= 0 {
		thr = s.DefaultSkimThreshold()
	}
	c := s.Clone()
	dense, err := c.SkimDense(domain, thr)
	if err != nil {
		return SelfJoinDecomposition{}, err
	}
	d := SelfJoinDecomposition{Threshold: thr, DenseCount: len(dense)}
	d.DenseDense = dense.InnerProduct(dense)
	d.DenseSparse = subJoin(dense, c)
	d.SparseSparse = c.SelfJoinEstimate()
	d.Total = d.DenseDense + 2*d.DenseSparse + d.SparseSparse
	return d, nil
}

// ErrorBound returns the paper's worst-case additive-error shape for a
// skimmed join estimate against a sketch with the same configuration:
// O(n_f · n_g / b) — the Section 4.3 bound with the constants dropped —
// given the two net stream sizes. It is a planning aid (how much space do
// I need for a target error?), not a guarantee certificate.
func (c Config) ErrorBound(nf, ng int64) float64 {
	if nf < 0 {
		nf = -nf
	}
	if ng < 0 {
		ng = -ng
	}
	return float64(nf) * float64(ng) / float64(c.Buckets)
}
