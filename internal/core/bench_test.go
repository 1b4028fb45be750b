package core

import (
	"testing"

	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

func benchSketch(b *testing.B, c Config, n int) *HashSketch {
	b.Helper()
	s := MustNewHashSketch(c)
	z, _ := workload.NewZipf(1<<14, 1.2, 1)
	stream.Apply(workload.MakeStream(z, n), s)
	return s
}

func BenchmarkUpdate(b *testing.B) {
	s := MustNewHashSketch(cfg(7, 1024, 1))
	z, _ := workload.NewZipf(1<<14, 1.2, 1)
	vs := make([]uint64, 4096)
	for i := range vs {
		vs[i] = z.Next()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vs[i&4095], 1)
	}
}

// BenchmarkUpdateBatch measures the amortized per-element cost of the
// batched update path; compare ns per update against BenchmarkUpdate for
// the batching win at identical bit-for-bit results.
func BenchmarkUpdateBatch(b *testing.B) {
	benchUpdateBatch(b, cfg(7, 1024, 1), 1<<14, 1.2, 256)
}

// BenchmarkUpdateBatchSketchd is BenchmarkUpdateBatch at the shape a
// sketchd synopsis takes under skimbench's sksp_ingest workload: d = 7,
// b = 2048, and batches of 1024 zipf(1.0) values over a 2^16 domain.
func BenchmarkUpdateBatchSketchd(b *testing.B) {
	benchUpdateBatch(b, cfg(7, 2048, 1), 1<<16, 1.0, 1024)
}

// BenchmarkUpdateBatchBacklog is the sketchd shape with the batch a
// saturated shard worker folds: its drained backlog, 4096 updates of
// one stream, about half of them distinct.
func BenchmarkUpdateBatchBacklog(b *testing.B) {
	benchUpdateBatch(b, cfg(7, 2048, 1), 1<<16, 1.0, 4096)
}

// BenchmarkUpdateBatchShard is the sketchd shape with the batch one of
// cluster3's shards folds: its third of a 512-update group, 170 updates.
func BenchmarkUpdateBatchShard(b *testing.B) {
	benchUpdateBatch(b, cfg(7, 2048, 1), 1<<16, 1.0, 170)
}

func benchUpdateBatch(b *testing.B, c Config, domain uint64, skew float64, n int) {
	s := MustNewHashSketch(c)
	z, _ := workload.NewZipf(domain, skew, 1)
	batch := workload.MakeStream(z, n)
	b.SetBytes(int64(len(batch)) * 16) // one Update{uint64,int64} per element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateBatch(batch)
	}
	b.ReportMetric(float64(b.N)*float64(len(batch))/b.Elapsed().Seconds(), "updates/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(batch))), "ns/update")
}

func BenchmarkPointEstimate7Tables(b *testing.B) {
	s := benchSketch(b, cfg(7, 1024, 1), 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PointEstimate(uint64(i & 16383))
	}
}

func BenchmarkSelfJoinEstimate(b *testing.B) {
	s := benchSketch(b, cfg(7, 1024, 1), 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SelfJoinEstimate()
	}
}

func BenchmarkSkimDense(b *testing.B) {
	s := benchSketch(b, cfg(7, 1024, 1), 100000)
	thr := s.DefaultSkimThreshold()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		if _, err := c.SkimDense(1<<14, thr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateJoin(b *testing.B) {
	f := benchSketch(b, cfg(7, 1024, 9), 100000)
	g := benchSketch(b, cfg(7, 1024, 9), 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateJoin(f, g, 1<<14, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEstimateJoin1M measures the full skimmed-join estimate at the
// answer_m20 workload's shape (d = 7, b = 2048, zipf 1.0, m = 2^20),
// where ~3 buckets per table are hot: the skim lists 6,112 candidates
// and tests 3 of them (TestScanRejectCost).
// Compare the Workers variants for the query-path speedup; outputs are
// bit-identical by TestQuickEstimateJoinWorkersEquivalence, so only
// wall-clock differs. A threshold of 0 keeps EstimateJoin's default.
func benchEstimateJoin1M(b *testing.B, workers int, thr int64) {
	const domain = 1 << 20
	c := cfg(7, 2048, 9)
	f, g := MustNewHashSketch(c), MustNewHashSketch(c)
	z1, _ := workload.NewZipf(domain, 1.0, 1)
	z2, _ := workload.NewZipf(domain, 1.0, 2)
	stream.Apply(workload.MakeStream(z1, 200000), f)
	stream.Apply(workload.MakeStream(z2, 200000), g)
	opts := &Options{Workers: workers, ThresholdF: thr, ThresholdG: thr}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateJoin(f, g, domain, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateJoin1MSequential(b *testing.B) { benchEstimateJoin1M(b, 1, 0) }
func BenchmarkEstimateJoin1MWorkers2(b *testing.B)   { benchEstimateJoin1M(b, 2, 0) }
func BenchmarkEstimateJoin1MWorkers4(b *testing.B)   { benchEstimateJoin1M(b, 4, 0) }

// BenchmarkEstimateJoin1MAllHot is the sequential 1M shape with both
// thresholds at 1, so every nonzero counter is hot and nearly every
// value is a candidate: the skim's worst case, with every value paying
// the enumeration step and the exact test.
func BenchmarkEstimateJoin1MAllHot(b *testing.B) { benchEstimateJoin1M(b, 1, 1) }

func BenchmarkClone(b *testing.B) {
	s := benchSketch(b, cfg(7, 1024, 1), 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Clone()
	}
}

func BenchmarkMarshalRoundTrip(b *testing.B) {
	s := benchSketch(b, cfg(7, 1024, 1), 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := s.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var r HashSketch
		if err := r.UnmarshalBinary(blob); err != nil {
			b.Fatal(err)
		}
	}
}
