// Command expdriver regenerates the paper's evaluation tables and
// figures. Each experiment prints the same rows/series the paper reports
// (error versus space per method, or ns/element for the update-cost
// claim).
//
// Usage:
//
//	expdriver -exp fig5a            # Figure 5(a), laptop scale
//	expdriver -exp fig5b -full      # Figure 5(b) at full paper scale
//	expdriver -exp census           # census-like table
//	expdriver -exp update           # per-element update cost
//	expdriver -exp ablation         # skim on/off ablation
//	expdriver -exp all              # everything, laptop scale
package main

import (
	"flag"
	"fmt"
	"os"

	"skimsketch/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig5a|fig5b|census|update|ablation|skew|threshold|all")
	full := flag.Bool("full", false, "run at full paper scale (minutes instead of seconds)")
	seeds := flag.Int("seeds", 0, "override the number of seeds per configuration")
	csvOut := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	partitioned := flag.Bool("partitioned", false, "add the Dobra-style partitioned baseline to fig5 experiments (granted exact priors)")
	flag.Parse()

	if err := run(*exp, *full, *seeds, *csvOut, *partitioned); err != nil {
		fmt.Fprintln(os.Stderr, "expdriver:", err)
		os.Exit(1)
	}
}

func run(exp string, full bool, seeds int, csvOut, partitioned bool) error {
	switch exp {
	case "fig5a":
		return runFig5(pick5a(full), seeds, csvOut, partitioned)
	case "fig5b":
		return runFig5(pick5b(full), seeds, csvOut, partitioned)
	case "census":
		return runCensus(seeds, csvOut)
	case "update":
		return runUpdate()
	case "ablation":
		return runAblation(seeds, csvOut)
	case "skew":
		return runSkew(seeds, csvOut)
	case "threshold":
		return runThreshold(seeds, csvOut)
	case "all":
		for _, e := range []string{"fig5a", "fig5b", "census", "update", "ablation", "skew", "threshold"} {
			if err := run(e, full, seeds, csvOut, partitioned); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func pick5a(full bool) experiments.Fig5Config {
	if full {
		return experiments.PaperFig5a()
	}
	return experiments.DefaultFig5a()
}

func pick5b(full bool) experiments.Fig5Config {
	if full {
		return experiments.PaperFig5b()
	}
	return experiments.DefaultFig5b()
}

func runFig5(cfg experiments.Fig5Config, seeds int, csvOut, partitioned bool) error {
	if seeds > 0 {
		cfg.Seeds = seeds
	}
	cfg.IncludePartitioned = partitioned
	res, err := experiments.RunFig5(cfg)
	if err != nil {
		return err
	}
	return emit(res, csvOut)
}

func runCensus(seeds int, csvOut bool) error {
	cfg := experiments.DefaultCensus()
	if seeds > 0 {
		cfg.Seeds = seeds
	}
	res, err := experiments.RunCensus(cfg)
	if err != nil {
		return err
	}
	return emit(res, csvOut)
}

func runUpdate() error {
	res, err := experiments.RunUpdateCost(experiments.DefaultUpdateCost())
	if err != nil {
		return err
	}
	res.WriteTable(os.Stdout)
	return nil
}

func runAblation(seeds int, csvOut bool) error {
	cfg := experiments.DefaultAblation()
	if seeds > 0 {
		cfg.Seeds = seeds
	}
	res, err := experiments.RunAblation(cfg)
	if err != nil {
		return err
	}
	return emit(res, csvOut)
}

func runSkew(seeds int, csvOut bool) error {
	cfg := experiments.DefaultSkewSweep()
	if seeds > 0 {
		cfg.Seeds = seeds
	}
	res, err := experiments.RunSkewSweep(cfg)
	if err != nil {
		return err
	}
	return emit(res, csvOut)
}

func runThreshold(seeds int, csvOut bool) error {
	cfg := experiments.DefaultThresholdSweep()
	if seeds > 0 {
		cfg.Seeds = seeds
	}
	res, err := experiments.RunThresholdSweep(cfg)
	if err != nil {
		return err
	}
	return emit(res, csvOut)
}

// emit renders a result as a table or CSV.
func emit(res experiments.Result, csvOut bool) error {
	if csvOut {
		return res.WriteCSV(os.Stdout)
	}
	res.WriteTable(os.Stdout)
	return nil
}
