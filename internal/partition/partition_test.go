package partition

import (
	"testing"

	"skimsketch/internal/agms"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	if err := (Config{Singletons: -1, ResidueS1: 1, ResidueS2: 1}).Validate(); err == nil {
		t.Fatal("expected error for negative singletons")
	}
	if err := (Config{ResidueS1: 0, ResidueS2: 1}).Validate(); err == nil {
		t.Fatal("expected error for zero residue dims")
	}
	if _, err := NewPair(nil, nil, 0, Config{ResidueS1: 1, ResidueS2: 1}); err == nil {
		t.Fatal("expected error for zero domain")
	}
	if _, err := NewPair(nil, nil, 16, Config{Singletons: -2, ResidueS1: 1, ResidueS2: 1}); err == nil {
		t.Fatal("expected config error")
	}
}

func TestSingletonsAreExact(t *testing.T) {
	statsF := stream.FreqVector{1: 1000, 2: 5}
	statsG := stream.FreqVector{1: 800, 3: 7}
	p, err := NewPair(statsF, statsG, 16, Config{Singletons: 1, ResidueS1: 8, ResidueS2: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.fCount) != 1 {
		t.Fatalf("singletons = %d", len(p.fCount))
	}
	// Value 1 must be the isolated one (largest score); its subjoin is
	// then exact regardless of sketch noise.
	for i := 0; i < 100; i++ {
		p.UpdateF(1, 1)
	}
	for i := 0; i < 50; i++ {
		p.UpdateG(1, 1)
	}
	est, err := p.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est != 5000 {
		t.Fatalf("estimate = %d, want exact 5000", est)
	}
}

func TestWords(t *testing.T) {
	p, err := NewPair(stream.FreqVector{1: 10, 2: 9, 3: 8}, nil, 16,
		Config{Singletons: 2, ResidueS1: 4, ResidueS2: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One word per singleton plus the residue sketch.
	if words := len(p.fCount) + p.fRes.Words(); words != 2+12 {
		t.Fatalf("words = %d", words)
	}
}

func TestSingletonsCappedByCandidates(t *testing.T) {
	p, err := NewPair(stream.FreqVector{5: 3}, nil, 16,
		Config{Singletons: 10, ResidueS1: 2, ResidueS2: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.fCount) != 1 {
		t.Fatalf("singletons = %d, want 1 (only one candidate)", len(p.fCount))
	}
}

func TestSinksRoute(t *testing.T) {
	p, err := NewPair(stream.FreqVector{1: 100}, nil, 16,
		Config{Singletons: 1, ResidueS1: 2, ResidueS2: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.UpdateF(1, 1)
	p.UpdateF(2, 1)
	p.UpdateG(1, 1)
	if p.fCount[0] != 1 || p.gCount[0] != 1 {
		t.Fatal("singleton counters must receive routed updates")
	}
}

// TestPartitionedBeatsPlainAGMS: with exact prior statistics and heavy
// values isolated, partitioned sketching must beat plain AGMS at equal
// space on skewed data — reproducing Dobra et al.'s improvement.
func TestPartitionedBeatsPlainAGMS(t *testing.T) {
	const m, n = 1 << 12, 60000
	const words = 640
	zf, _ := workload.NewZipf(m, 1.4, 11)
	zg, _ := workload.NewZipf(m, 1.4, 12)
	fs := workload.MakeStream(zf, n)
	gs := workload.MakeStream(workload.NewShifted(zg, 10), n)
	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	stream.Apply(fs, fv)
	stream.Apply(gs, gv)
	exact := float64(fv.InnerProduct(gv))

	var partErr, agmsErr float64
	const seeds = 5
	for seed := uint64(0); seed < seeds; seed++ {
		const singles = 64
		p, err := NewPair(fv, gv, m, Config{
			Singletons: singles,
			ResidueS1:  (words - singles) / 5,
			ResidueS2:  5,
			Seed:       seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range fs {
			p.UpdateF(u.Value, u.Weight)
		}
		for _, u := range gs {
			p.UpdateG(u.Value, u.Weight)
		}
		pe, err := p.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		partErr += stats.SymmetricError(float64(pe), exact)

		af := agms.MustNew(words/5, 5, 100+seed)
		ag := agms.MustNew(words/5, 5, 100+seed)
		stream.Apply(fs, af)
		stream.Apply(gs, ag)
		ae, err := agms.JoinEstimate(af, ag)
		if err != nil {
			t.Fatal(err)
		}
		agmsErr += stats.SymmetricError(float64(ae), exact)
	}
	partErr /= seeds
	agmsErr /= seeds
	t.Logf("partitioned err %.4f vs plain AGMS %.4f", partErr, agmsErr)
	if partErr >= agmsErr {
		t.Fatalf("partitioned (%.4f) must beat plain AGMS (%.4f) with exact priors", partErr, agmsErr)
	}
}

// TestDeleteInvariance: partitioned estimates are linear too.
func TestDeleteInvariance(t *testing.T) {
	st := stream.FreqVector{1: 100}
	mk := func() *Pair {
		p, err := NewPair(st, nil, 16, Config{Singletons: 1, ResidueS1: 4, ResidueS2: 3, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := mk(), mk()
	a.UpdateF(1, 2)
	a.UpdateF(7, 3)
	a.UpdateG(1, 1)
	b.UpdateF(1, 2)
	b.UpdateF(7, 3)
	b.UpdateF(9, 5)
	b.UpdateF(9, -5)
	b.UpdateG(1, 1)
	b.UpdateG(3, 2)
	b.UpdateG(3, -2)
	ea, _ := a.Estimate()
	eb, _ := b.Estimate()
	if ea != eb {
		t.Fatalf("delete noise changed estimate: %d vs %d", ea, eb)
	}
}
