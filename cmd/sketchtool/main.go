// Command sketchtool is the offline binary: sketch each stream once, then
// ship, merge and join the synopses anywhere.
//
//	sketchtool gen   -kind zipf -out f.sks -domain 262144 -n 1000000 -zipf 1.0
//	sketchtool build -in f.sks -out f.skhs -tables 7 -buckets 2048 -seed 42
//	sketchtool info  -in f.skhs
//	sketchtool merge -out all.skhs shard1.skhs shard2.skhs ...
//	sketchtool join  -f f.sks -g g.skhs
//	sketchtool probe -addr 127.0.0.1:9091 -client probe-1 -seq 7 -replay
//
// join reads each input by its magic: it sketches an SKS1 stream in one pass
// with -tables/-buckets/-seed, as build does, and loads any other file as an
// SKHS sketch. probe sends one raw SKSP frame; -replay re-sends it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"skimsketch/internal/agms"
	"skimsketch/internal/core"
	"skimsketch/internal/distributed"
	"skimsketch/internal/stats"
	"skimsketch/internal/stream"
	"skimsketch/internal/wire"
	"skimsketch/internal/workload"
)

var commands = map[string]func(w io.Writer, args []string) error{
	"gen": runGen, "build": runBuild, "info": runInfo,
	"merge": runMerge, "join": runJoin, "probe": runProbe,
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sketchtool:", err)
		os.Exit(1)
	}
}

// run dispatches args[0] to its subcommand, which reports to w.
func run(w io.Writer, args []string) error {
	if len(args) == 0 {
		return errors.New("need a subcommand: gen|build|info|merge|join|probe")
	}
	cmd, ok := commands[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	if err := cmd(w, args[1:]); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	return nil
}

// sketchFlags registers the sketch-shape flags of build and join.
func sketchFlags(fs *flag.FlagSet) *core.Config {
	var c core.Config
	fs.IntVar(&c.Tables, "tables", 7, "hash-sketch tables d")
	fs.IntVar(&c.Buckets, "buckets", 2048, "hash-sketch buckets per table b")
	fs.Uint64Var(&c.Seed, "seed", 42, "sketch seed")
	return &c
}

func runGen(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	kind := fs.String("kind", "zipf", "workload: zipf|uniform|census")
	out := fs.String("out", "", "output stream file (required)")
	out2 := fs.String("out2", "", "second output file (census only: overtime stream)")
	domain := fs.Uint64("domain", 1<<18, "value domain size m")
	n := fs.Int("n", 1000000, "number of stream elements")
	zipf := fs.Float64("zipf", 1.0, "zipf skew parameter z")
	shift := fs.Uint64("shift", 0, "right-shift applied to generated values")
	seed := fs.Int64("seed", 1, "generator seed")
	deletes := fs.Float64("deletes", 0, "fraction of insert/delete noise to interleave")
	format := fs.String("format", "binary", "output format: binary (SKS1) or text (value[,weight] lines)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *out == "":
		return errors.New("-out is required")
	case *n <= 0:
		return errors.New("-n must be positive")
	case *domain == 0:
		return errors.New("-domain must be positive")
	case *format != "binary" && *format != "text":
		return fmt.Errorf("unknown -format %q", *format)
	case *kind == "census" && *out2 == "":
		return errors.New("-out2 is required for -kind census (the overtime stream)")
	}
	writeFile := stream.WriteFile
	if *format == "text" {
		writeFile = writeText
	}
	write := func(path string, m uint64, updates []stream.Update) error {
		if err := writeFile(path, m, updates); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d updates over domain %d to %s\n", len(updates), m, path)
		return nil
	}
	var gen workload.Generator
	switch *kind {
	case "zipf":
		z, err := workload.NewZipf(*domain, *zipf, *seed)
		if err != nil {
			return err
		}
		gen = z
	case "uniform":
		gen = workload.NewUniform(*domain, *seed)
	case "census":
		wage, overtime := workload.CensusPair(*n, *seed)
		if err := write(*out, workload.CensusDomain, wage); err != nil {
			return err
		}
		return write(*out2, workload.CensusDomain, overtime)
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}
	if *shift > 0 {
		gen = workload.NewShifted(gen, *shift)
	}
	updates := workload.MakeStream(gen, *n)
	if *deletes > 0 {
		updates = workload.WithDeletes(updates, *deletes, *seed+1)
	}
	return write(*out, *domain, updates)
}

// writeText is stream.WriteFile for the text format, which has no header.
func writeText(path string, _ uint64, updates []stream.Update) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(stream.WriteText(f, updates), f.Close())
}

func runBuild(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	in := fs.String("in", "", "input stream file (required)")
	out := fs.String("out", "", "output sketch file (required)")
	cfg := sketchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("-in and -out are required")
	}
	sk, _, n, err := sketchStream(*in, *cfg, false, 0)
	if err != nil {
		return err
	}
	if err := writeSketch(*out, sk); err != nil {
		return err
	}
	fmt.Fprintf(w, "sketched %d updates into %s (%d words)\n", n, *out, sk.Words())
	return nil
}

func runInfo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	in := fs.String("in", "", "sketch file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("-in is required")
	}
	sk, err := readSketch(*in)
	if err != nil {
		return err
	}
	cfg := sk.Config()
	fmt.Fprintf(w, "tables=%d buckets=%d seed=%d words=%d\n", cfg.Tables, cfg.Buckets, cfg.Seed, sk.Words())
	fmt.Fprintf(w, "net-count=%d gross-count=%d\n", sk.NetCount(), sk.GrossCount())
	fmt.Fprintf(w, "self-join-estimate=%d default-skim-threshold=%d\n", sk.SelfJoinEstimate(), sk.DefaultSkimThreshold())
	return nil
}

func runMerge(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	out := fs.String("out", "", "output sketch file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("-out is required")
	}
	sketches := make([]*core.HashSketch, fs.NArg())
	for i, p := range fs.Args() {
		var err error
		if sketches[i], err = readSketch(p); err != nil {
			return err
		}
	}
	merged, err := distributed.Merge(sketches...)
	if err != nil {
		return err
	}
	if err := writeSketch(*out, merged); err != nil {
		return err
	}
	fmt.Fprintf(w, "merged %d sketches into %s (net-count %d)\n", len(sketches), *out, merged.NetCount())
	return nil
}

func runJoin(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("join", flag.ContinueOnError)
	fPath := fs.String("f", "", "F input: SKS1 stream or SKHS sketch file (required)")
	gPath := fs.String("g", "", "G input: SKS1 stream or SKHS sketch file (required)")
	cfg := sketchFlags(fs)
	exact := fs.Bool("exact", false, "also compute the exact join size (stream inputs only)")
	doAGMS := fs.Bool("agms", false, "also run the basic-AGMS baseline at equal space (stream inputs only)")
	text := fs.Bool("text", false, "inputs are text streams (value[,weight] lines) over [0, -domain)")
	domain := fs.Uint64("domain", 0, "value domain; required unless an input is an SKS1 stream")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fPath == "" || *gPath == "" {
		return errors.New("-f and -g are required")
	}
	if *text && *domain == 0 {
		return errors.New("-text requires -domain (text files carry no header)")
	}
	m := *domain // the larger of -domain and every stream header's domain
	var sk [2]*core.HashSketch
	var fv [2]stream.FreqVector
	var ag [2]*agms.Sketch
	for i, p := range [2]string{*fPath, *gPath} {
		// The optional baselines share the one pass over a stream.
		var extra []stream.Sink
		if *exact {
			fv[i] = stream.NewFreqVector()
			extra = append(extra, fv[i])
		}
		if *doAGMS {
			const s2 = 11
			a, err := agms.New(max(cfg.Tables*cfg.Buckets/s2, 1), s2, cfg.Seed)
			if err != nil {
				return err
			}
			ag[i], extra = a, append(extra, a)
		}
		s, d, _, err := sketchStream(p, *cfg, *text, *domain, extra...)
		if errors.Is(err, stream.ErrBadMagic) {
			if *exact || *doAGMS {
				return fmt.Errorf("-exact and -agms need stream inputs, and %s is not an SKS1 stream", p)
			}
			s, err = readSketch(p)
		}
		if err != nil {
			return err
		}
		sk[i], m = s, max(m, d)
	}
	if m == 0 {
		return errors.New("-domain is required when no input is an SKS1 stream")
	}
	est, err := core.EstimateJoin(sk[0], sk[1], m, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "estimate=%d dense=(%d,%d) components=(dd %d, ds %d, sd %d, ss %d) thresholds=(%d,%d)\n",
		est.Total, est.DenseCountF, est.DenseCountG,
		est.DenseDense, est.DenseSparse, est.SparseDense, est.SparseSparse,
		est.ThresholdF, est.ThresholdG)
	if *doAGMS {
		a, err := agms.JoinEstimate(ag[0], ag[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "basic-agms=%d words=%d\n", a, ag[0].Words())
	}
	if *exact {
		j := fv[0].InnerProduct(fv[1])
		fmt.Fprintf(w, "exact=%d symmetric-error=%.4f\n", j, stats.SymmetricError(float64(est.Total), float64(j)))
	}
	return nil
}

// sketchStream pipes a stream file in one pass into a fresh sketch of
// cfg and into extra, and returns the sketch, domain and length. A text
// file is read over [0, domain); an SKS1 header gives its own domain.
func sketchStream(path string, cfg core.Config, text bool, domain uint64, extra ...stream.Sink) (*core.HashSketch, uint64, int64, error) {
	sk, err := core.NewHashSketch(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	sinks := append([]stream.Sink{sk}, extra...)
	if !text {
		domain, n, err := stream.Pipe(path, sinks...)
		return sk, domain, n, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	n, err := stream.PipeText(f, domain, sinks...)
	return sk, domain, n, err
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
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sk, nil
}

func runProbe(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("probe", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9091", "sketchd -listen.stream address")
	client := fs.String("client", "probe", "client ID for the dedupe window")
	seq := fs.Uint64("seq", 1, "frame sequence number")
	tenant := fs.String("tenant", "", "tenant namespace (empty = default)")
	streams := fs.String("streams", "F,G", "comma-separated streams; one insert each")
	value := fs.Uint64("value", 7, "inserted value (must be in every stream's domain)")
	replay := fs.Bool("replay", false, "reconnect and re-send the same frame; require a duplicate ACK")
	timeout := fs.Duration("timeout", 5*time.Second, "per-connection I/O deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d := &wire.Data{ClientID: *client, Seq: *seq, Tenant: *tenant}
	for _, s := range strings.Split(*streams, ",") {
		if s = strings.TrimSpace(s); s != "" {
			d.Groups = append(d.Groups, stream.Group{Name: s, Updates: []stream.Update{{Value: *value, Weight: 1}}})
		}
	}
	ack, err := sendOnce(*addr, d, *timeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "probe: seq %d ACKed, applied=%d duplicate=%v\n", ack.Seq, ack.Applied, ack.Duplicate)
	if !*replay {
		return nil
	}
	// The replay must be answered from the server's dedupe window.
	ack2, err := sendOnce(*addr, d, *timeout)
	switch {
	case err != nil:
		return fmt.Errorf("replay: %w", err)
	case !ack2.Duplicate:
		return fmt.Errorf("replay of seq %d was NOT deduplicated (applied=%d)", ack2.Seq, ack2.Applied)
	case ack2.Applied != ack.Applied:
		return fmt.Errorf("duplicate ACK reports applied=%d, original said %d", ack2.Applied, ack.Applied)
	}
	fmt.Fprintf(w, "probe: replay of seq %d answered as duplicate, nothing re-applied\n", ack2.Seq)
	return nil
}

// sendOnce sends d on a session of its own, so a replay arrives on a
// fresh connection; a REJECT or an ERROR is an error.
func sendOnce(addr string, d *wire.Data, timeout time.Duration) (wire.Ack, error) {
	s, err := wire.Dial(addr, timeout)
	if err != nil {
		return wire.Ack{}, err
	}
	defer s.Close()
	return s.Send(d)
}
