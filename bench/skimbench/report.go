package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// metricDef is one reported metric, named and united as in
// BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are what a user of sketchd sees; every untraced run of every
// workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_ups", "updates/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p90_ms", "ms"},
	{"answer_p50_ms", "ms"},
	{"answer_p90_ms", "ms"},
	{"server_rss_mb", "MiB"},
}

// perLayer are the traced run's layer metrics, on every workload.
var perLayer = []metricDef{
	{"hashfam.sign_ns", "ns"},
	{"hashfam.bucket_ns", "ns"},
	{"core.update_ns", "ns"},
	{"core.skim_ms", "ms"},
	{"core.subjoin_ms", "ms"},
	{"core.clone_us", "us"},
	{"core.marshal_us", "us"},
	{"core.answer_rel_err", "ratio"},
	{"cluster.payload_decode_us", "us"},
	{"distributed.merge_us", "us"},
	{"cluster.shard_sketch_p90_ms", "ms"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_update", "B/update"},
	{"engine.admit_ns", "ns"},
	{"engine.pipeline_ups", "updates/s"},
	{"engine.flush_ms", "ms"},
	{"engine.stats_ms", "ms"},
	{"engine.snapshot_clone_ms", "ms"},
	{"engine.answer_ms", "ms"},
	{"engine.cache_miss_ratio", "ratio"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"sketchd.cpu_ns_per_update", "ns"},
	{"sketchd.update_p99_ms", "ms"},
	{"sketchd.healthz_rtt_us", "us"},
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.driver_cpu_frac", "ratio"},
	{"bench.ingest_rse", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints one outcome: a "workload metric value unit" line per
// metric (the end-to-end ones, and on a traced run the per-layer ones
// too), "#" lines for context and mismatches, and the result line. The
// result line carries the per-layer metrics on a traced run and the
// end-to-end ones otherwise.
func report(w io.Writer, o *outcome, traced bool) error {
	line := resultLine{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	print := func(defs []metricDef, vals map[string]float64, inResult bool) error {
		for _, m := range defs {
			v, ok := vals[m.name]
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", o.workload, m.name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: metric %s is %v", o.workload, m.name, v)
			}
			fmt.Fprintf(w, "%s %s %s %s\n", o.workload, m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
			if inResult {
				line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
			}
		}
		return nil
	}
	if err := print(endToEnd, o.e2e, !traced); err != nil {
		return err
	}
	if traced {
		if err := print(perLayer, o.layers, true); err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(o.info))
	for k := range o.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %s %s %s\n", o.workload, k, strconv.FormatFloat(o.info[k], 'g', -1, 64))
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "# %s FAIL %s\n", o.workload, p)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runRecord is one run in results.json.
type runRecord struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	E2E       map[string]float64 `json:"endToEnd"`
	Layers    map[string]float64 `json:"perLayer,omitempty"`
	Info      map[string]float64 `json:"info"`
	Config    map[string]any     `json:"config"`
}

func record(o *outcome, traced bool) runRecord {
	r := runRecord{Workload: o.workload, Traced: traced, Correct: o.correct, Attempted: o.attempted,
		Failed: o.failed, Problems: o.problems, E2E: o.e2e, Info: o.info, Config: o.config}
	if traced {
		r.Layers = o.layers
	}
	return r
}

// units maps every metric name to its unit, for results.json.
func units() map[string]string {
	u := make(map[string]string)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			u[m.name] = m.unit
		}
	}
	return u
}

func writeResults(path string, runs []runRecord) error {
	data, err := json.MarshalIndent(struct {
		Units map[string]string `json:"units"`
		Runs  []runRecord       `json:"runs"`
	}{units(), runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
