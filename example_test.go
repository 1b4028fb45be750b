package skimsketch_test

import (
	"fmt"
	"math/rand"

	"skimsketch"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/workload"
)

// The canonical flow: build a pair of sketches with one Config, stream
// updates into each side, and estimate the join size. All randomness is
// derived from the seed, so the example output is reproducible.
func ExampleJoinPair() {
	pair, err := skimsketch.NewJoinPair(1024, skimsketch.Config{Tables: 5, Buckets: 64, Seed: 1})
	if err != nil {
		panic(err)
	}
	// Stream F: value 7 appears 100 times. Stream G: 40 times.
	for i := 0; i < 100; i++ {
		pair.UpdateF(7, 1)
	}
	for i := 0; i < 40; i++ {
		pair.UpdateG(7, 1)
	}
	est, err := pair.Estimate()
	if err != nil {
		panic(err)
	}
	fmt.Println("estimate:", est.Total)
	// Output: estimate: 4000
}

// Deletions are negative weights; a deleted element leaves no trace in
// the synopsis (sketch linearity).
func ExampleEstimateJoin_deletes() {
	cfg := skimsketch.Config{Tables: 5, Buckets: 64, Seed: 2}
	f, _ := skimsketch.New(cfg)
	g, _ := skimsketch.New(cfg)
	f.Update(3, 10)
	f.Update(99, 5)
	f.Update(99, -5) // retract all 99s
	g.Update(3, 6)
	est, err := skimsketch.EstimateJoin(f, g, 128)
	if err != nil {
		panic(err)
	}
	fmt.Println("estimate:", est.Total)
	// Output: estimate: 60
}

// SUM aggregates are COUNT queries over measure-weighted updates: weight
// each G-side element by its measure.
func ExampleEstimateJoin_sum() {
	cfg := skimsketch.Config{Tables: 5, Buckets: 64, Seed: 3}
	facts, _ := skimsketch.New(cfg)
	revenue, _ := skimsketch.New(cfg)
	facts.Update(42, 1)     // one subscriber interested in product 42
	revenue.Update(42, 250) // a sale of product 42 worth 250
	revenue.Update(42, 120) // another worth 120
	est, err := skimsketch.EstimateJoin(facts, revenue, 128)
	if err != nil {
		panic(err)
	}
	fmt.Println("SUM estimate:", est.Total)
	// Output: SUM estimate: 370
}

// Join-size estimation against the exact answer on two Zipf(1.1)
// streams, G right-shifted by 100 so the streams overlap on a slice of
// the domain. The exact frequency vectors exist only to grade the
// estimate; a deployment keeps only the sketches.
func ExampleJoinPair_quickstart() {
	const (
		domain    = 1 << 14
		streamLen = 40000 // elements per stream
	)
	// 7 tables × 1024 buckets = 7168 words per stream.
	pair, err := skimsketch.NewJoinPair(domain, skimsketch.Config{Tables: 7, Buckets: 1024, Seed: 42})
	if err != nil {
		panic(err)
	}
	zf, err := workload.NewZipf(domain, 1.1, 1)
	if err != nil {
		panic(err)
	}
	zg, err := workload.NewZipf(domain, 1.1, 2)
	if err != nil {
		panic(err)
	}
	shifted := workload.NewShifted(zg, 100)

	fv, gv := stream.NewFreqVector(), stream.NewFreqVector()
	for i := 0; i < streamLen; i++ {
		v := zf.Next()
		pair.UpdateF(v, 1)
		fv.Update(v, 1)
		w := shifted.Next()
		pair.UpdateG(w, 1)
		gv.Update(w, 1)
	}
	est, err := pair.Estimate()
	if err != nil {
		panic(err)
	}
	exact := fv.InnerProduct(gv)

	fmt.Printf("exact COUNT(F ⋈ G)  = %d\n", exact)
	fmt.Printf("estimate            = %d\n", est.Total)
	fmt.Printf("symmetric error     = %.4f\n", stats.SymmetricError(float64(est.Total), float64(exact)))
	fmt.Printf("synopsis            = %d words (both streams)\n", pair.Words())
	fmt.Printf("dense values        = %d from F, %d from G (thresholds %d / %d)\n",
		est.DenseCountF, est.DenseCountG, est.ThresholdF, est.ThresholdG)
	fmt.Printf("decomposition       = dd %d + ds %d + sd %d + ss %d\n",
		est.DenseDense, est.DenseSparse, est.SparseDense, est.SparseSparse)
	// Output:
	// exact COUNT(F ⋈ G)  = 857198
	// estimate            = 912749
	// symmetric error     = 0.0648
	// synopsis            = 14336 words (both streams)
	// dense values        = 4 from F, 4 from G (thresholds 1250 / 1250)
	// decomposition       = dd 0 + ds 18328 + sd 429965 + ss 464456
}

// The paper's motivating scenario: two network elements export flow
// records keyed by (hashed) source address. A flow start is an insert
// and a flow end a delete, so each sketch tracks live flows, and
// COUNT(R1 ⋈ R2) counts pairs of live flows sharing a source. A few
// chatty sources carry 40% of the flows at both elements: the skewed
// regime skimmed sketches are built for.
func ExampleJoinPair_netmon() {
	const (
		domain = 1 << 16
		epochs = 6
		starts = 5000 // flow starts per epoch at each element
	)
	pair, err := skimsketch.NewJoinPair(domain, skimsketch.Config{Tables: 7, Buckets: 512, Seed: 7})
	if err != nil {
		panic(err)
	}
	f1, f2 := stream.NewFreqVector(), stream.NewFreqVector()
	var live1, live2 []uint64
	rng := rand.New(rand.NewSource(99))
	chatty := make([]uint64, 20)
	for i := range chatty {
		chatty[i] = uint64(rng.Int63n(domain))
	}
	source := func() uint64 {
		if rng.Float64() < 0.4 {
			return chatty[rng.Intn(len(chatty))]
		}
		return uint64(rng.Int63n(domain))
	}
	// expire ends about half of the live flows and returns the rest.
	expire := func(live []uint64, end func(uint64)) []uint64 {
		kept := live[:0]
		for _, s := range live {
			if rng.Float64() < 0.5 {
				end(s)
			} else {
				kept = append(kept, s)
			}
		}
		return kept
	}

	fmt.Println("epoch  live1  live2  exact-corr  estimate  sym-error")
	for e := 1; e <= epochs; e++ {
		for i := 0; i < starts; i++ {
			s := source()
			pair.UpdateF(s, 1)
			f1.Update(s, 1)
			live1 = append(live1, s)
		}
		for i := 0; i < starts; i++ {
			s := source()
			pair.UpdateG(s, 1)
			f2.Update(s, 1)
			live2 = append(live2, s)
		}
		live1 = expire(live1, func(s uint64) { pair.UpdateF(s, -1); f1.Update(s, -1) })
		live2 = expire(live2, func(s uint64) { pair.UpdateG(s, -1); f2.Update(s, -1) })

		est, err := pair.Estimate()
		if err != nil {
			panic(err)
		}
		exact := f1.InnerProduct(f2)
		fmt.Printf("%5d  %5d  %5d  %10d  %8d  %9.4f\n", e, len(live1), len(live2), exact, est.Total,
			stats.SymmetricError(float64(est.Total), float64(exact)))
	}
	fmt.Printf("synopsis: %d words for both elements (vs %d live-flow records)\n",
		pair.Words(), len(live1)+len(live2))
	// Output:
	// epoch  live1  live2  exact-corr  estimate  sym-error
	//     1   2507   2485       50591     50649     0.0011
	//     2   3810   3788      113495    113822     0.0029
	//     3   4396   4291      149429    150024     0.0040
	//     4   4650   4605      169583    170702     0.0066
	//     5   4767   4804      177605    178655     0.0059
	//     6   4956   4932      187472    189002     0.0082
	// synopsis: 7168 words for both elements (vs 9888 live-flow records)
}

// A SUM aggregate with a selection predicate (§2.1) over two retail
// streams joined on product id:
//
//	SELECT SUM(G.amount) FROM F JOIN G ON F.product = G.product
//	WHERE F.product < 4096
//
// The predicate drops elements before they reach the sketches, and G is
// sketched with the sale amount as its weight (SUM as a weighted
// COUNT). A voided sale is retracted with the negated amount.
func ExampleJoinPair_salesjoin() {
	const (
		domain     = 1 << 14
		groceryMax = 4096 // the predicate: product < groceryMax
		n          = 30000
	)
	pair, err := skimsketch.NewJoinPair(domain, skimsketch.Config{Tables: 7, Buckets: 1024, Seed: 11})
	if err != nil {
		panic(err)
	}
	facts, sales := stream.NewFreqVector(), stream.NewFreqVector()

	purchases, err := workload.NewZipf(domain, 1.1, 5)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		if p := purchases.Next(); p < groceryMax {
			pair.UpdateF(p, 1)
			facts.Update(p, 1)
		}
	}
	products, err := workload.NewZipf(domain, 1.1, 6)
	if err != nil {
		panic(err)
	}
	amounts := workload.NewUniform(100, 7)
	voided := 0
	for i := 0; i < n; i++ {
		p := products.Next()
		if p >= groceryMax {
			continue
		}
		a := int64(amounts.Next()) + 1
		pair.UpdateG(p, a)
		sales.Update(p, a)
		if i%50 == 0 { // about 2% of sales are voided afterwards
			pair.UpdateG(p, -a)
			sales.Update(p, -a)
			voided++
		}
	}

	est, err := pair.Estimate()
	if err != nil {
		panic(err)
	}
	exact := facts.InnerProduct(sales)
	fmt.Printf("voided sales retracted = %d\n", voided)
	fmt.Printf("exact SUM              = %d\n", exact)
	fmt.Printf("estimate               = %d\n", est.Total)
	fmt.Printf("symmetric error        = %.4f\n", stats.SymmetricError(float64(est.Total), float64(exact)))
	fmt.Printf("dense values           = %d (F) / %d (G)\n", est.DenseCountF, est.DenseCountG)
	// Output:
	// voided sales retracted = 543
	// exact SUM              = 1424176372
	// estimate               = 1423865859
	// symmetric error        = 0.0002
	// dense values           = 4 (F) / 4 (G)
}
