// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Accuracy
// figures (5a, 5b, census, ablation) run a scaled-down configuration per
// iteration and report the measured mean symmetric errors as custom
// metrics next to the timing; per-element cost claims are plain ns/op
// benchmarks. cmd/expdriver runs the same experiments at larger scale
// with full tables.
package skimsketch

import (
	"strings"
	"testing"

	"skimsketch/internal/agms"
	"skimsketch/internal/core"
	"skimsketch/internal/dyadic"
	"skimsketch/internal/engine"
	"skimsketch/internal/experiments"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// benchFig5 runs one laptop-scale figure configuration and reports the
// top-space mean errors of the two methods as custom metrics.
func benchFig5(b *testing.B, zipf float64, shifts []uint64) {
	cfg := experiments.Fig5Config{
		Domain:     1 << 12,
		StreamLen:  50000,
		Zipf:       zipf,
		Shifts:     shifts,
		SpaceWords: []int{640, 2560},
		Seeds:      1,
		AGMSRows:   []int{11},
		SkimTables: []int{5},
	}
	var agmsErr, skimErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		agmsErr, skimErr = 0, 0
		var na, ns int
		for _, s := range res.Series {
			p := s.Points[len(s.Points)-1]
			if strings.HasPrefix(s.Label, "BasicAGMS") {
				agmsErr += p.Err
				na++
			} else {
				skimErr += p.Err
				ns++
			}
		}
		agmsErr /= float64(na)
		skimErr /= float64(ns)
	}
	b.ReportMetric(agmsErr, "agms-err")
	b.ReportMetric(skimErr, "skim-err")
}

// BenchmarkFigure5a regenerates Figure 5(a): Zipf 1.0 with right shifts.
func BenchmarkFigure5a(b *testing.B) { benchFig5(b, 1.0, []uint64{100, 200, 300}) }

// BenchmarkFigure5b regenerates Figure 5(b): Zipf 1.5 with right shifts.
func BenchmarkFigure5b(b *testing.B) { benchFig5(b, 1.5, []uint64{30, 50}) }

// BenchmarkCensus regenerates the census-like table (full version of the
// paper): wage ⋈ overtime at a few space budgets.
func BenchmarkCensus(b *testing.B) {
	cfg := experiments.CensusConfig{
		Records:         30000,
		SpaceWords:      []int{512, 1024},
		Seeds:           1,
		AGMSRows:        []int{11},
		SkimTables:      []int{5},
		IncludeSampling: true,
	}
	var agmsErr, skimErr, sampErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCensus(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			p := s.Points[len(s.Points)-1]
			switch s.Label {
			case "BasicAGMS":
				agmsErr = p.Err
			case "Skimmed":
				skimErr = p.Err
			case "Sampling":
				sampErr = p.Err
			}
		}
	}
	b.ReportMetric(agmsErr, "agms-err")
	b.ReportMetric(skimErr, "skim-err")
	b.ReportMetric(sampErr, "sampling-err")
}

// benchValues pre-draws a value stream for the update-cost benchmarks.
func benchValues(n int) []uint64 {
	g, err := workload.NewZipf(1<<16, 1.0, 1)
	if err != nil {
		panic(err)
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = g.Next()
	}
	return vs
}

// BenchmarkUpdateSkimmedSketch measures the paper's O(d) per-element
// maintenance cost of the hash sketch at 8K words.
func BenchmarkUpdateSkimmedSketch(b *testing.B) {
	vs := benchValues(4096)
	sk := core.MustNewHashSketch(core.Config{Tables: 7, Buckets: 8192 / 7, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(vs[i&4095], 1)
	}
}

// BenchmarkUpdateBasicAGMS measures basic sketching's O(s1·s2)
// per-element cost at the same 8K words — the contrast behind the
// paper's update-time claim.
func BenchmarkUpdateBasicAGMS(b *testing.B) {
	vs := benchValues(4096)
	sk := agms.MustNew(8192/11, 11, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(vs[i&4095], 1)
	}
}

// BenchmarkUpdateDyadicHierarchy measures the O(d·log m) per-element cost
// of the dyadic hierarchy used by the fast skimmer.
func BenchmarkUpdateDyadicHierarchy(b *testing.B) {
	vs := benchValues(4096)
	h := dyadic.MustNew(16, core.Config{Tables: 7, Buckets: 8192 / 7, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Update(vs[i&4095], 1)
	}
}

// buildJoinPair charges a pair of hash sketches with a skewed join for
// the estimation-time benchmarks.
func buildJoinPair(b *testing.B, domain uint64, n int, c core.Config) (*core.HashSketch, *core.HashSketch) {
	b.Helper()
	f := core.MustNewHashSketch(c)
	g := core.MustNewHashSketch(c)
	zf, _ := workload.NewZipf(domain, 1.2, 3)
	zg, _ := workload.NewZipf(domain, 1.2, 4)
	stream.Apply(workload.MakeStream(zf, n), f)
	stream.Apply(workload.MakeStream(workload.NewShifted(zg, 50), n), g)
	return f, g
}

// BenchmarkEstimateJoinSkim measures query-time cost of the full skimmed
// estimator (clone + skim + four subjoins) at domain 2^14.
func BenchmarkEstimateJoinSkim(b *testing.B) {
	const domain = 1 << 14
	f, g := buildJoinPair(b, domain, 100000, core.Config{Tables: 7, Buckets: 1024, Seed: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateJoin(f, g, domain, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateJoinNoSkim is the ablation partner: identical sketches
// and space, skimming disabled.
func BenchmarkEstimateJoinNoSkim(b *testing.B) {
	const domain = 1 << 14
	f, g := buildJoinPair(b, domain, 100000, core.Config{Tables: 7, Buckets: 1024, Seed: 9})
	opts := &core.Options{NoSkim: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateJoin(f, g, domain, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSkim reports the accuracy gap that skimming buys at
// equal space on a skewed join (the DESIGN.md ablation experiment).
func BenchmarkAblationSkim(b *testing.B) {
	cfg := experiments.AblationConfig{
		Domain:     1 << 12,
		StreamLen:  50000,
		Shift:      30,
		Zipfs:      []float64{1.5},
		SpaceWords: []int{640},
		Seeds:      2,
		Tables:     5,
	}
	var on, off float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			if strings.HasPrefix(s.Label, "NoSkim") {
				off = s.Points[0].Err
			} else {
				on = s.Points[0].Err
			}
		}
	}
	b.ReportMetric(on, "skim-err")
	b.ReportMetric(off, "noskim-err")
}

// BenchmarkSkimDenseNaive measures the reference O(m·d) extraction.
func BenchmarkSkimDenseNaive(b *testing.B) {
	const domain = 1 << 14
	f, _ := buildJoinPair(b, domain, 100000, core.Config{Tables: 5, Buckets: 1024, Seed: 9})
	thr := f.DefaultSkimThreshold()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := f.Clone()
		if _, err := c.SkimDense(domain, thr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkimDenseDyadic measures the O(b·d·log m) dyadic extraction at
// the same domain and threshold (Section 4.2's optimization).
func BenchmarkSkimDenseDyadic(b *testing.B) {
	const bits = 14
	h := dyadic.MustNew(bits, core.Config{Tables: 5, Buckets: 1024, Seed: 9})
	zf, _ := workload.NewZipf(1<<bits, 1.2, 3)
	for _, u := range workload.MakeStream(zf, 100000) {
		h.Update(u.Value, u.Weight)
	}
	thr := h.DefaultSkimThreshold()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense, err := h.Skim(thr)
		if err != nil {
			b.Fatal(err)
		}
		// Skim mutates: adding the dense values back restores every
		// level's counters for the next iteration.
		b.StopTimer()
		for v, w := range dense {
			h.Update(v, w)
		}
		b.StartTimer()
	}
}

// benchIngestEngine builds an engine with streams F and G and one COUNT
// join query for the ingestion-path benchmarks.
func benchIngestEngine(b *testing.B) *engine.Engine {
	b.Helper()
	e, err := engine.New(engine.Options{SketchConfig: core.Config{Tables: 7, Buckets: 1024, Seed: 42}})
	if err != nil {
		b.Fatal(err)
	}
	tn := e.Tenant(engine.DefaultTenant)
	for _, s := range []string{"F", "G"} {
		if err := tn.DeclareStream(s, 1<<14); err != nil {
			b.Fatal(err)
		}
	}
	err = tn.RegisterQuery(engine.QuerySpec{
		Name:  "q",
		Agg:   engine.Count,
		Left:  engine.Side{Stream: "F"},
		Right: engine.Side{Stream: "G"},
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchIngestStream pre-draws an update stream for the engine benchmarks.
func benchIngestStream(n int) []stream.Update {
	z, err := workload.NewZipf(1<<14, 1.0, 9)
	if err != nil {
		panic(err)
	}
	return workload.MakeStream(z, n)
}

// BenchmarkEngineIngestParallel drives the concurrent batched pipeline,
// the engine's only ingest path, at 4 workers with 256-element batches.
func BenchmarkEngineIngestParallel(b *testing.B) {
	const batchSize = 256
	e := benchIngestEngine(b)
	err := e.StartIngest(engine.IngestConfig{Workers: 4, BatchSize: batchSize, QueueDepth: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer e.StopIngest()
	tn := e.Tenant(engine.DefaultTenant)
	us := benchIngestStream(1 << 16)
	b.SetBytes(16)
	b.ResetTimer()
	for off := 0; off < b.N; off += batchSize {
		n := batchSize
		if rem := b.N - off; rem < n {
			n = rem
		}
		lo := off & (1<<16 - 1)
		if lo+n > 1<<16 {
			lo = 0
		}
		if err := tn.IngestBatch("F", us[lo:lo+n]); err != nil {
			b.Fatal(err)
		}
	}
	e.Flush()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/sec")
}

// BenchmarkPointEstimate measures a single COUNTSKETCH point query.
func BenchmarkPointEstimate(b *testing.B) {
	f, _ := buildJoinPair(b, 1<<14, 100000, core.Config{Tables: 7, Buckets: 1024, Seed: 9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.PointEstimate(uint64(i & 16383))
	}
}
