package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func defsOf(defs []metricDef) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	b := loadBenchmarkJSON(t)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s does not match %v", unit, name, unitRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	var wls []string
	for _, w := range b.Workloads {
		check(w.Name, "")
		wls = append(wls, w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not one of the driver's", w.Name)
		}
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the driver has %d", wls, len(workloads))
	}
	e2e := map[string]string{}
	var maxBound float64
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound; got %+v", m)
		}
	}
	layers := map[string]string{}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit)
		layers[m.Name] = m.Unit
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !equalMaps(e2e, defsOf(endToEnd)) {
		t.Errorf("end_to_end %v differs from the driver's %v", e2e, defsOf(endToEnd))
	}
	if !equalMaps(layers, defsOf(perLayer)) {
		t.Errorf("per_layer %v differs from the driver's %v", layers, defsOf(perLayer))
	}
	if _, ok := e2e["setup_s"]; !ok {
		t.Error("no setup_s metric")
	}
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// fakeOutcome is an outcome with every metric measured.
func fakeOutcome(wl string, correct bool) *outcome {
	o := &outcome{workload: wl, correct: correct, attempted: 10, e2e: map[string]float64{}, layers: map[string]float64{},
		info: map[string]float64{"answers": 3}}
	for i, m := range endToEnd {
		o.e2e[m.name] = 1.5 + float64(i)
	}
	for i, m := range perLayer {
		o.layers[m.name] = 0.25 + float64(i)
	}
	if !correct {
		o.problems = []string{"acked 1, server enqueued 0, applied 0"}
	}
	return o
}

// parseOutput splits a run's stdout into its metric lines (name → unit)
// and its final result line.
func parseOutput(t *testing.T, out string) (map[string]string, resultLine) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "#") {
			continue
		}
		f := strings.Fields(l)
		if len(f) != 4 {
			t.Fatalf("metric line %q is not \"workload metric value unit\"", l)
		}
		printed[f[1]] = f[3]
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var res resultLine
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return printed, res
}

func metricNames(m map[string]metricValue) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func TestOutputContract(t *testing.T) {
	sketchd := filepath.Join(t.TempDir(), "sketchd")
	if err := os.WriteFile(sketchd, nil, 0o755); err != nil {
		t.Fatal(err)
	}
	all := defsOf(append(append([]metricDef{}, endToEnd...), perLayer...))
	for _, tc := range []struct {
		trace       string
		printed     map[string]string
		resultNames map[string]string
	}{
		{"0", defsOf(endToEnd), defsOf(endToEnd)},
		{"1", all, defsOf(perLayer)},
	} {
		out := t.TempDir()
		fake := func(_ context.Context, _ *config, wl *workload, _ *tracer) (*outcome, error) {
			return fakeOutcome(wl.name, true), nil
		}
		var stdout bytes.Buffer
		code := run([]string{"--workload", "cluster3", "--seed", "3", "--seconds", "20", "--trace", tc.trace,
			"-sketchd", sketchd, "-tmp", t.TempDir(), "-out", out}, &stdout, fake)
		if code != 0 {
			t.Fatalf("trace %s: exit %d", tc.trace, code)
		}
		printed, res := parseOutput(t, stdout.String())
		if !equalMaps(printed, tc.printed) {
			t.Errorf("trace %s: printed %v, want %v", tc.trace, printed, tc.printed)
		}
		got := map[string]string{}
		for name, v := range res.Metrics {
			got[name] = v.Unit
		}
		if !equalMaps(got, tc.resultNames) {
			t.Errorf("trace %s: result line has %v, want %v", tc.trace, metricNames(res.Metrics), tc.resultNames)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("trace %s: result %+v", tc.trace, res)
		}
		data, err := os.ReadFile(filepath.Join(out, "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		for name := range tc.printed {
			if !bytes.Contains(data, []byte(`"`+name+`"`)) {
				t.Errorf("trace %s: results.json lacks %s", tc.trace, name)
			}
		}
	}
}

func TestRunFailsOnFailedGate(t *testing.T) {
	sketchd := filepath.Join(t.TempDir(), "sketchd")
	if err := os.WriteFile(sketchd, nil, 0o755); err != nil {
		t.Fatal(err)
	}
	fake := func(_ context.Context, _ *config, wl *workload, _ *tracer) (*outcome, error) {
		return fakeOutcome(wl.name, false), nil
	}
	var stdout bytes.Buffer
	code := run([]string{"--workload", "sksp_ingest", "--seed", "1", "--seconds", "20", "--trace", "0", "-sketchd", sketchd}, &stdout, fake)
	if code == 0 {
		t.Fatal("a run whose correctness check failed exited 0")
	}
	_, res := parseOutput(t, stdout.String())
	if res.Correct {
		t.Error("result line reports correct")
	}
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if strings.Contains(sc.Text(), "FAIL") {
			return
		}
	}
	t.Error("the mismatch was not printed")
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "-sketchd", os.Args[0]},
		{"--trace", "2", "-sketchd", os.Args[0]},
		{"--workload", "cluster3"},
		{"--workload", "cluster3", "-sketchd", os.Args[0], "extra"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, nil); code == 0 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, printed %q", args, code, stdout.String())
		}
	}
}
