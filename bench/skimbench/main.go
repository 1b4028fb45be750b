// Command skimbench is the repository's benchmark. It launches sketchd
// as separate processes on loopback, feeds them inputs generated from
// its seed, checks that every server holds and answers exactly what a
// reference built from the acknowledged updates holds, and prints each
// metric as "workload metric value unit", then one JSON result line.
//
// run.sh builds sketchd and this driver from the checkout and runs it:
//
//	bash bench/skimbench/run.sh --workload sksp_ingest --seed 1 --seconds 20 --trace 0
//	bash bench/skimbench/run.sh --workload all --seed 42 --seconds 20 --trace 1 --out DIR
//
// A traced run (-trace 1) also times each layer in process and reports
// the per-layer metrics; with -out it first repeats each workload
// untraced and prints the difference as the tracing overhead. -out
// writes results.json and, traced, trace.json. The exit status is
// non-zero when any correctness check fails. The driver reads /proc, so
// it runs on Linux only.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	sketchd  string
	tmp      string
	out      string
}

func parseArgs(args []string) (*config, error) {
	cfg := &config{}
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	fs := flag.NewFlagSet("skimbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	fs.Uint64Var(&cfg.seed, "seed", 42, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per workload")
	fs.IntVar(&cfg.trace, "trace", 0, "1 times each layer and reports per-layer metrics")
	fs.StringVar(&cfg.sketchd, "sketchd", "", "sketchd binary to launch")
	fs.StringVar(&cfg.tmp, "tmp", os.TempDir(), "directory for temporary files")
	fs.StringVar(&cfg.out, "out", "", "directory for results.json and trace.json")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case fs.NArg() != 0:
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	case cfg.workload != "all" && findWorkload(cfg.workload) == nil:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	case cfg.seconds < 2:
		return nil, fmt.Errorf("-seconds %d: need at least 2", cfg.seconds)
	case cfg.trace != 0 && cfg.trace != 1:
		return nil, fmt.Errorf("-trace %d: want 0 or 1", cfg.trace)
	case cfg.sketchd == "":
		return nil, errors.New("-sketchd is required")
	}
	if _, err := os.Stat(cfg.sketchd); err != nil {
		return nil, err
	}
	return cfg, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, runWorkload))
}

// runFunc runs one workload; tr is nil on an untraced run.
type runFunc func(ctx context.Context, cfg *config, wl *workload, tr *tracer) (*outcome, error)

// run runs the selected workloads with runOne and returns the exit
// status: 2 for bad arguments, 1 when a run failed or a correctness
// check did not pass.
func run(args []string, stdout io.Writer, runOne runFunc) int {
	cfg, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skimbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	selected := workloads
	if cfg.workload != "all" {
		selected = []*workload{findWorkload(cfg.workload)}
	}
	traced := cfg.trace == 1
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var runs []runRecord
	correct := true
	for _, wl := range selected {
		var base *outcome
		if traced && cfg.out != "" {
			if base, err = runOne(ctx, cfg, wl, nil); err != nil {
				fmt.Fprintln(os.Stderr, "skimbench:", err)
				return 1
			}
			runs = append(runs, record(base, false))
			correct = correct && base.correct
		}
		o, err := runOne(ctx, cfg, wl, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skimbench:", err)
			return 1
		}
		if base != nil {
			// The tracing overhead: what the traced run's end-to-end
			// metrics lost against the untraced run just before it.
			for _, m := range endToEnd {
				fmt.Fprintf(stdout, "# %s overhead.%s %s %s\n", wl.name, m.name,
					strconv.FormatFloat(o.e2e[m.name]-base.e2e[m.name], 'g', -1, 64), m.unit)
			}
		}
		if err := report(stdout, o, traced); err != nil {
			fmt.Fprintln(os.Stderr, "skimbench:", err)
			return 1
		}
		runs = append(runs, record(o, traced))
		correct = correct && o.correct
	}
	if cfg.out != "" {
		if err := writeOutputs(cfg, runs, tr); err != nil {
			fmt.Fprintln(os.Stderr, "skimbench:", err)
			return 1
		}
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "skimbench: correctness check failed")
		return 1
	}
	return 0
}

// writeOutputs saves results.json and, on a traced run, trace.json.
func writeOutputs(cfg *config, runs []runRecord, tr *tracer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	if err := writeResults(filepath.Join(cfg.out, "results.json"), runs); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.write(filepath.Join(cfg.out, "trace.json"))
}
