package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"skimsketch/internal/cluster"
)

// answerMode says when a workload's answer client runs.
type answerMode int

const (
	// answerProbe runs after the open phase: rounds of one JSON update
	// and then one /answer, so every answer sees a new epoch.
	answerProbe answerMode = iota
	// answerClosed runs through the open phase: one JSON update, then
	// one /answer, back to back.
	answerClosed
	// answerOpen runs through the open phase: /answer on a fixed
	// schedule at answerRate per second.
	answerOpen
)

// workload is one traffic mix. Every workload declares streams F and G
// and the query q = COUNT(F ⋈ G) in each of its tenants and feeds them
// zipf(1.0) values; the workloads differ in which layer of sketchd does
// most of the work.
type workload struct {
	name    string
	domain  uint64
	tenants []string // "" is the default tenant
	proto   string   // how load arrives: "sksp" or "json"
	batch   int      // updates per request
	shards  int      // 0 runs one node; n runs n shards behind a merger
	// nodeArgs are the workload's sketchd flags; on a cluster they go to
	// every shard.
	nodeArgs     []string
	queryWorkers int  // the -query.workers in nodeArgs, which the ladder mirrors
	checkpoint   bool // checkpoint every 5s to a temp dir
	// openShare is the part of the measured seconds spent in the open
	// phase; the closed phase gets the rest.
	openShare  float64
	openUPS    float64 // open-phase ingest rate, updates per second
	scrape     bool    // scrape /stats once a second during the open phase
	answers    answerMode
	answerRate float64 // answers per second, for answerOpen
}

var workloads = []*workload{
	{
		// Sketch maintenance, wire decode and admission do most of the
		// work; the query path stays idle until the probe. The scraper
		// and the checkpoints expose quiesce stalls in ack latency.
		name: "sksp_ingest", domain: 1 << 16, tenants: []string{""}, proto: "sksp", batch: 1024,
		nodeArgs: []string{"-ingest.workers", "2"}, checkpoint: true,
		openShare: 0.5, openUPS: 800_000, scrape: true, answers: answerProbe,
	},
	{
		// HTTP, JSON decode, tenant scoping and the dedupe window
		// dominate; sketching is a small share, so a hashing gain should
		// leave this workload flat.
		name: "json_tenants", domain: 1 << 16, tenants: []string{"t0", "t1", "t2", "t3"}, proto: "json", batch: 256,
		nodeArgs:  []string{"-ingest.workers", "2"},
		openShare: 0.5, openUPS: 120_000, answers: answerProbe,
	},
	{
		// Every answer misses the cache and pays quiesce, clone and an
		// O(m·d) skim at m = 2^20; ack latency shows what answers cost
		// ingest. Answers take a few hundred ms each, so the open phase
		// gets most of the time to collect enough of them.
		name: "answer_m20", domain: 1 << 20, tenants: []string{""}, proto: "sksp", batch: 1024,
		nodeArgs: []string{"-ingest.workers", "2", "-query.workers", "2"}, queryWorkers: 2,
		openShare: 0.75, openUPS: 200_000, answers: answerClosed,
	},
	{
		// Merger fan-out, per-shard /sketch encode, decode and merge.
		name: "cluster3", domain: 1 << 16, tenants: []string{""}, proto: "sksp", batch: 1024, shards: 3,
		nodeArgs:  []string{"-ingest.workers", "1"},
		openShare: 0.5, openUPS: 100_000, answers: answerOpen, answerRate: 10,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

const (
	// setupRepeats is how many times a run deploys the workload's
	// servers; setup_s is the median and the last deployment is used.
	setupRepeats = 11
	// probeRounds is the number of update-then-answer rounds of an
	// answerProbe workload: twenty samples above the p90, spread over
	// several seconds so that one slow second of the host moves little.
	probeRounds = 200
	// poolBatches is the number of distinct batches a run cycles through.
	poolBatches = 256
	// skspInFlight and httpConns are the load discipline: one SKSP
	// connection with at most 8 frames in flight, or 2 HTTP keep-alive
	// connections.
	skspInFlight = 8
	httpConns    = 2
)

// deployment is the set of sketchd processes serving one workload.
type deployment struct {
	nodes []*server // the processes holding synopses
	front *server   // where load, schema and queries go
	procs []*server // every process
	dir   string    // per-deployment temp dir
}

func (d *deployment) stop() {
	for _, s := range d.procs {
		s.stop()
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// deploy launches the workload's servers, waits until each answers
// /healthz, and declares the schema.
func deploy(ctx context.Context, cfg *config, wl *workload, ctl *http.Client) (*deployment, error) {
	dir, err := os.MkdirTemp(cfg.tmp, wl.name+"-")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir}
	start := func(args []string, wantSKSP bool) (*server, error) {
		s, err := startServer(ctx, cfg.sketchd, args, wantSKSP)
		if err == nil {
			d.procs = append(d.procs, s)
		}
		return s, err
	}
	if err := d.launch(wl, start); err != nil {
		d.stop()
		return nil, err
	}
	for _, s := range d.procs {
		if err := waitHealthy(ctx, ctl, s.url); err != nil {
			d.stop()
			return nil, err
		}
	}
	front := api{ctl, d.front.url}
	for _, t := range wl.tenants {
		for _, s := range []string{"F", "G"} {
			if err := front.post(ctx, tenantPath(t, "/streams"), fmt.Sprintf(`{"name":%q,"domain":%d}`, s, wl.domain)); err != nil {
				d.stop()
				return nil, err
			}
		}
		q := `{"name":"q","agg":"COUNT","left":{"stream":"F"},"right":{"stream":"G"}}`
		if err := front.post(ctx, tenantPath(t, "/queries"), q); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) launch(wl *workload, start func([]string, bool) (*server, error)) error {
	if wl.shards == 0 {
		args := append([]string{}, wl.nodeArgs...)
		if wl.proto == "sksp" {
			args = append(args, "-listen.stream", "127.0.0.1:0")
		}
		if wl.checkpoint {
			args = append(args, "-checkpoint.dir", filepath.Join(d.dir, "checkpoints"), "-checkpoint.interval", "5s")
		}
		s, err := start(args, wl.proto == "sksp")
		if err != nil {
			return err
		}
		d.nodes, d.front = []*server{s}, s
		return nil
	}
	var ring cluster.Config
	for i := 0; i < wl.shards; i++ {
		s, err := start(append([]string{"-role=shard"}, wl.nodeArgs...), false)
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, s)
		ring.Shards = append(ring.Shards, cluster.Shard{Name: fmt.Sprintf("s%d", i), Addr: s.url})
	}
	data, err := json.Marshal(ring)
	if err != nil {
		return err
	}
	path := filepath.Join(d.dir, "ring.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	args := []string{"-role=merger", "-cluster.config", path}
	if wl.proto == "sksp" {
		args = append(args, "-listen.stream", "127.0.0.1:0")
	}
	m, err := start(args, wl.proto == "sksp")
	if err != nil {
		return err
	}
	d.front = m
	return nil
}

// serverCPU sums the CPU time of every process of the deployment.
func (d *deployment) serverCPU() (time.Duration, error) {
	var total time.Duration
	for _, s := range d.procs {
		t, err := cpuTime(s.pid())
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// nodeSummary is what the gate's /stats reads say about the layers.
type nodeSummary struct {
	updateP99ms float64 // the slowest node's server-side /update p99
	missRatio   float64 // answer-cache misses over answers
}

// nodeStatsJSON is the part of a node's /stats the benchmark reads.
type nodeStatsJSON struct {
	Ingest struct {
		UpdatesEnqueued int64 `json:"updatesEnqueued"`
		UpdatesApplied  int64 `json:"updatesApplied"`
	} `json:"ingest"`
	UpdateLatency struct {
		P99Ns float64 `json:"p99Ns"`
	} `json:"updateLatency"`
	AnswerCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"answerCache"`
	Answers struct { // a merger's
		Total  int64 `json:"total"`
		Cached int64 `json:"cached"`
	} `json:"answers"`
	Tenants map[string]struct {
		UpdateCounts map[string]int64 `json:"updateCounts"`
	} `json:"tenants"`
}

// observe reads, after the flush, what the gate compares.
func observe(ctx context.Context, d *deployment, wl *workload, ctl *http.Client) (*observation, nodeSummary, error) {
	obs := &observation{tenants: make(map[string]tenantObs)}
	var sum nodeSummary
	counts := make(map[string]int64)
	var answers, misses int64
	for _, s := range d.nodes {
		var st nodeStatsJSON
		if err := (api{ctl, s.url}).getJSON(ctx, "/stats", &st); err != nil {
			return nil, sum, err
		}
		obs.enqueued += st.Ingest.UpdatesEnqueued
		obs.applied += st.Ingest.UpdatesApplied
		sum.updateP99ms = max(sum.updateP99ms, st.UpdateLatency.P99Ns/1e6)
		answers += st.AnswerCache.Hits + st.AnswerCache.Misses
		misses += st.AnswerCache.Misses
		for name, ts := range st.Tenants {
			for _, n := range ts.UpdateCounts {
				counts[name] += n
			}
		}
	}
	if wl.shards > 0 {
		var st nodeStatsJSON
		if err := (api{ctl, d.front.url}).getJSON(ctx, "/stats", &st); err != nil {
			return nil, sum, err
		}
		answers, misses = st.Answers.Total, st.Answers.Total-st.Answers.Cached
	}
	if answers > 0 {
		sum.missRatio = float64(misses) / float64(answers)
	}
	front := api{ctl, d.front.url}
	for _, t := range wl.tenants {
		o := tenantObs{updates: counts[tenantName(t)], of: wl.shards}
		status, blob, err := front.do(ctx, http.MethodGet, tenantPath(t, "/sketch?query=q"), nil, nil)
		if err != nil {
			return nil, sum, err
		}
		if status != http.StatusOK {
			return nil, sum, fmt.Errorf("GET /sketch: status %d", status)
		}
		pl, err := cluster.DecodePayload(blob)
		if err != nil {
			return nil, sum, err
		}
		if o.left, err = pl.Left.MarshalBinary(); err != nil {
			return nil, sum, err
		}
		if o.right, err = pl.Right.MarshalBinary(); err != nil {
			return nil, sum, err
		}
		ans, err := front.answer(ctx, t)
		if err != nil {
			return nil, sum, err
		}
		o.estimate = ans.Estimate
		if ans.Shards != nil {
			o.answered = ans.Shards.Answered
		}
		obs.tenants[t] = o
	}
	return obs, sum, nil
}

// workloadConfig echoes the settings a run used.
func workloadConfig(cfg *config, wl *workload) map[string]any {
	conns, inFlight := httpConns, 1
	if wl.proto == "sksp" {
		conns, inFlight = 1, skspInFlight
	}
	return map[string]any{
		"seed":              cfg.seed,
		"seconds":           cfg.seconds,
		"driverGOMAXPROCS":  2,
		"serverGOMAXPROCS":  2,
		"sketchdFlags":      append(append([]string{}, sketchdFlags...), wl.nodeArgs...),
		"shards":            wl.shards,
		"proto":             wl.proto,
		"loadConnections":   conns,
		"inFlightPerConn":   inFlight,
		"batch":             wl.batch,
		"domain":            wl.domain,
		"tenants":           len(wl.tenants),
		"openUpdatesPerSec": wl.openUPS,
		"openSeconds":       float64(cfg.seconds) * wl.openShare,
		"setupRepeats":      setupRepeats,
		"checkpointEvery":   map[bool]string{true: "5s", false: "off"}[wl.checkpoint],
	}
}
