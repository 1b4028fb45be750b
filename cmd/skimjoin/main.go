// Command skimjoin estimates the join size of two stream files in one
// pass per file using skimmed sketches, optionally comparing against the
// basic-AGMS baseline and the exact answer.
//
// Usage:
//
//	skimjoin -f f.sks -g g.sks -tables 7 -buckets 2048
//	skimjoin -f f.sks -g g.sks -exact -agms
//
// The stream files carry their domain in the header; the larger of the
// two domains is used for skimming.
package main

import (
	"flag"
	"fmt"
	"os"

	"skimsketch/internal/agms"
	"skimsketch/internal/core"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
)

func main() {
	var (
		fPath   = flag.String("f", "", "stream file for F (required)")
		gPath   = flag.String("g", "", "stream file for G (required)")
		tables  = flag.Int("tables", 7, "hash-sketch tables d")
		buckets = flag.Int("buckets", 2048, "hash-sketch buckets per table b")
		seed    = flag.Uint64("seed", 42, "sketch seed")
		exact   = flag.Bool("exact", false, "also compute the exact join size (materializes frequency vectors)")
		doAGMS  = flag.Bool("agms", false, "also run the basic-AGMS baseline at equal space")
		text    = flag.Bool("text", false, "inputs are text files (value[,weight] lines); requires -domain")
		domainF = flag.Uint64("domain", 0, "value domain for -text inputs")
	)
	flag.Parse()

	if err := run(*fPath, *gPath, *tables, *buckets, *seed, *exact, *doAGMS, *text, *domainF); err != nil {
		fmt.Fprintln(os.Stderr, "skimjoin:", err)
		os.Exit(1)
	}
}

func run(fPath, gPath string, tables, buckets int, seed uint64, exact, doAGMS, text bool, textDomain uint64) error {
	if fPath == "" || gPath == "" {
		return fmt.Errorf("-f and -g are required")
	}
	if text && textDomain == 0 {
		return fmt.Errorf("-text requires -domain (text files carry no header)")
	}
	cfg := core.Config{Tables: tables, Buckets: buckets, Seed: seed}
	fSketch, err := core.NewHashSketch(cfg)
	if err != nil {
		return err
	}
	gSketch, err := core.NewHashSketch(cfg)
	if err != nil {
		return err
	}

	// Optional extra sinks share the single pass over each file.
	var fSinks = []stream.Sink{fSketch}
	var gSinks = []stream.Sink{gSketch}
	var fv, gv stream.FreqVector
	if exact {
		fv, gv = stream.NewFreqVector(), stream.NewFreqVector()
		fSinks = append(fSinks, fv)
		gSinks = append(gSinks, gv)
	}
	var fAGMS, gAGMS *agms.Sketch
	if doAGMS {
		words := tables * buckets
		s2 := 11
		s1 := words / s2
		if s1 < 1 {
			s1 = 1
		}
		fAGMS, err = agms.New(s1, s2, seed)
		if err != nil {
			return err
		}
		gAGMS, err = agms.New(s1, s2, seed)
		if err != nil {
			return err
		}
		fSinks = append(fSinks, fAGMS)
		gSinks = append(gSinks, gAGMS)
	}

	ingest := stream.Pipe
	if text {
		ingest = func(path string, sinks ...stream.Sink) (uint64, int64, error) {
			f, err := os.Open(path)
			if err != nil {
				return 0, 0, err
			}
			defer f.Close()
			n, err := stream.PipeText(f, sinks...)
			return textDomain, n, err
		}
	}
	domain, nf, err := ingest(fPath, fSinks...)
	if err != nil {
		return err
	}
	gDomain, ng, err := ingest(gPath, gSinks...)
	if err != nil {
		return err
	}
	if gDomain > domain {
		domain = gDomain
	}

	est, err := core.EstimateJoin(fSketch, gSketch, domain, nil)
	if err != nil {
		return err
	}

	fmt.Printf("streams: F=%d updates, G=%d updates, domain=%d\n", nf, ng, domain)
	fmt.Printf("sketch: %d tables x %d buckets = %d words per stream\n", tables, buckets, tables*buckets)
	fmt.Printf("skimmed-sketch estimate: %d\n", est.Total)
	fmt.Printf("  dense x dense  = %d (F extracted %d dense values, G %d)\n", est.DenseDense, est.DenseCountF, est.DenseCountG)
	fmt.Printf("  dense x sparse = %d, sparse x dense = %d, sparse x sparse = %d\n",
		est.DenseSparse, est.SparseDense, est.SparseSparse)
	fmt.Printf("  skim thresholds: F=%d, G=%d\n", est.ThresholdF, est.ThresholdG)

	if doAGMS {
		a, err := agms.JoinEstimate(fAGMS, gAGMS)
		if err != nil {
			return err
		}
		fmt.Printf("basic-AGMS estimate:     %d (%d words per stream)\n", a, fAGMS.Words())
	}
	if exact {
		j := fv.InnerProduct(gv)
		fmt.Printf("exact join size:         %d\n", j)
		fmt.Printf("skimmed symmetric error: %.4f\n", stats.SymmetricError(float64(est.Total), float64(j)))
	}
	return nil
}
