// Command sketchtool works with serialized hash-sketch files (.skhs):
// build one from a stream file, inspect it, merge several (multi-site
// aggregation), and estimate a join from two of them.
//
// Usage:
//
//	sketchtool build -in f.sks -out f.skhs -tables 7 -buckets 2048 -seed 42
//	sketchtool info -in f.skhs
//	sketchtool merge -out all.skhs shard1.skhs shard2.skhs ...
//	sketchtool join -f f.skhs -g g.skhs -domain 262144
//
// Sketches that will be merged or joined must have been built with the
// same -tables/-buckets/-seed.
package main

import (
	"flag"
	"fmt"
	"os"

	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/stream"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "sketchtool: need a subcommand: build|info|merge|join")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "merge":
		err = runMerge(os.Args[2:])
	case "join":
		err = runJoin(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchtool:", err)
		os.Exit(1)
	}
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	in := fs.String("in", "", "input stream file (required)")
	out := fs.String("out", "", "output sketch file (required)")
	tables := fs.Int("tables", 7, "hash-sketch tables d")
	buckets := fs.Int("buckets", 2048, "buckets per table b")
	seed := fs.Uint64("seed", 42, "sketch seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("build: -in and -out are required")
	}
	sk, err := core.NewHashSketch(core.Config{Tables: *tables, Buckets: *buckets, Seed: *seed})
	if err != nil {
		return err
	}
	_, n, err := stream.Pipe(*in, sk)
	if err != nil {
		return err
	}
	if err := writeSketch(*out, sk); err != nil {
		return err
	}
	fmt.Printf("sketched %d updates into %s (%d words)\n", n, *out, sk.Words())
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	in := fs.String("in", "", "sketch file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("info: -in is required")
	}
	sk, err := readSketch(*in)
	if err != nil {
		return err
	}
	cfg := sk.Config()
	fmt.Printf("tables=%d buckets=%d seed=%d words=%d\n", cfg.Tables, cfg.Buckets, cfg.Seed, sk.Words())
	fmt.Printf("net-count=%d gross-count=%d\n", sk.NetCount(), sk.GrossCount())
	fmt.Printf("self-join-estimate=%d default-skim-threshold=%d\n", sk.SelfJoinEstimate(), sk.DefaultSkimThreshold())
	return nil
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	out := fs.String("out", "", "output sketch file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("merge: -out is required")
	}
	ins := fs.Args()
	if len(ins) == 0 {
		return fmt.Errorf("merge: need at least one input sketch file")
	}
	sketches := make([]*core.HashSketch, 0, len(ins))
	for _, p := range ins {
		sk, err := readSketch(p)
		if err != nil {
			return fmt.Errorf("merge: %s: %w", p, err)
		}
		sketches = append(sketches, sk)
	}
	merged, err := distributed.Merge(sketches...)
	if err != nil {
		return err
	}
	if err := writeSketch(*out, merged); err != nil {
		return err
	}
	fmt.Printf("merged %d sketches into %s (net-count %d)\n", len(ins), *out, merged.NetCount())
	return nil
}

func runJoin(args []string) error {
	fs := flag.NewFlagSet("join", flag.ContinueOnError)
	fPath := fs.String("f", "", "F sketch file (required)")
	gPath := fs.String("g", "", "G sketch file (required)")
	domain := fs.Uint64("domain", 0, "value domain size (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fPath == "" || *gPath == "" || *domain == 0 {
		return fmt.Errorf("join: -f, -g and -domain are required")
	}
	f, err := readSketch(*fPath)
	if err != nil {
		return err
	}
	g, err := readSketch(*gPath)
	if err != nil {
		return err
	}
	est, err := core.EstimateJoin(f, g, *domain, nil)
	if err != nil {
		return err
	}
	fmt.Printf("estimate=%d dense=(%d,%d) components=(dd %d, ds %d, sd %d, ss %d)\n",
		est.Total, est.DenseCountF, est.DenseCountG,
		est.DenseDense, est.DenseSparse, est.SparseDense, est.SparseSparse)
	return nil
}

func writeSketch(path string, sk *core.HashSketch) error {
	blob, err := sk.MarshalBinary()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func readSketch(path string) (*core.HashSketch, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sk core.HashSketch
	if err := sk.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return &sk, nil
}
