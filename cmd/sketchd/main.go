// Command sketchd serves the stream query-processing engine over HTTP:
// declare streams, register continuous join-aggregate queries, push
// updates, and read approximate answers — the paper's Figure 1
// architecture as a network service.
//
//	sketchd -addr :8080 -tables 7 -buckets 2048 -seed 42
//
// This package is flags plus lifecycle. The serving surface — the HTTP
// API below and the SKSP binary ingest listener (-listen.stream, see
// docs/FORMATS.md) — is internal/serve, written once over a backend;
// internal/cluster supplies the two backends: a Node over an in-process
// engine (-role=single, the default, and -role=shard) and a Merger over
// a shard ring (-role=merger). Every endpoint therefore behaves the same
// in every role.
//
// A node ingests through the engine's concurrent batched pipeline, its
// only path from a stream into its synopses: batches are grouped by
// stream and enqueued to -ingest.workers shard workers (default one per
// CPU) over bounded queues; /answer, /stats and /snapshot drain the
// pipeline first, so reads always observe every previously accepted
// update. When every queue slot is full, /update sheds load with 429 +
// Retry-After instead of blocking (counted in /stats ingest.rejected).
//
// With -query.workers N the skim's domain scan behind a node's /answer
// runs on N goroutines (-1 = one per CPU) with bit-identical answers; a
// merger's /answer skims sequentially. A node's /answer clones the
// synopses and estimates outside the engine locks, so a slow answer
// never stalls ingestion, and repeated answers with no intervening
// updates are served from an epoch-keyed cache.
//
// With -checkpoint.dir a node's state — the engine snapshot, range
// predicates included — is persisted crash-safely: restored at boot,
// saved every -checkpoint.interval, and saved once more on shutdown.
// SIGINT/SIGTERM trigger a graceful exit — stop accepting connections,
// drain in-flight requests and the ingest pipeline, write the final
// checkpoint, exit 0 — so `kill -TERM` during active ingestion loses
// nothing. Because sketches are linear, a restored checkpoint plus a
// replayed tail is bit-identical to uninterrupted ingestion. See
// docs/OPERATIONS.md for the full lifecycle contract.
//
// Cluster mode (docs/OPERATIONS.md "Cluster mode"): shards are ordinary
// sketchds named in a static JSON membership file; a merger
// (`-role=merger -cluster.config ring.json`) serves the same API,
// hash-routing ingest across the ring (HTTP and SKSP both), keeping
// registrations schema-uniform by broadcast, and answering every global
// /answer by pulling each shard's slim /sketch payload afresh and
// merging through sketch linearity. A dead shard degrades the answer
// (reported shard coverage + widened confidence) instead of failing it.
// A merger's standing watches evaluate that global answer; they live in
// the stateless merger, so a merger restart forgets them. A merger
// refuses a query with a windowed side (400), since each shard would
// window only the updates routed to it.
//
// Every piece of state is scoped to a tenant namespace. The flat API
// below operates on the "default" tenant, so single-tenant deployments
// are unaffected; prefix any path with /t/{tenant}/ (or add ?tenant= /
// a "tenant" body field) to scope it. Stream names may not contain '/',
// which /stats updateCounts uses to join tenant and stream. All tenants
// share one ingest pipeline and one sketch configuration; per-tenant
// quotas on synopsis memory and ingest queue share
// (-tenant.max-synopsis-words, -tenant.max-pending-updates, or
// per-tenant via POST /tenants) reject over-quota requests with 429 +
// Retry-After. Standing watches (/watches) raise hysteresis alerts on
// watched query estimates, evaluated on demand or every -watch.interval.
//
// API (JSON bodies, JSON responses; all but /healthz, /tenants and
// /flush also under /t/{tenant}/...):
//
//	POST   /streams     {"name":"F","domain":262144}
//	POST   /predicates  {"name":"small","min":0,"max":4095}     (value range)
//	POST   /queries     {"name":"q","agg":"COUNT",
//	                     "left":{"stream":"F","predicate":"small"},
//	                     "right":{"stream":"G","windowLen":100000,"windowBuckets":4}}
//	DELETE /queries/q
//	POST   /update      {"stream":"F","value":7,"weight":1}
//	                    or a JSON array of such objects (batch);
//	                    optional header Idempotency-Key: clientID:seq
//	GET    /answer?query=q
//	GET    /sketch?query=q  (slim SKSL cluster payload: both synopses + metadata)
//	POST   /flush       (drain the ingest pipeline; shared, drains all tenants)
//	GET    /healthz     (readiness: 200 serving, 503 draining)
//	GET    /stats       (global + per-tenant; scoped: one tenant's slice)
//	GET    /snapshot    (checkpoint: engine state as JSON; scoped: one tenant;
//	                     501 from a merger)
//	POST   /restore     (load a snapshot into an empty engine/tenant; 501 from a merger)
//	GET    /tenants     (list tenants with quotas and counters)
//	POST   /tenants     {"name":"acme","quota":{"maxSynopsisWords":65536,
//	                     "maxPendingUpdates":100000}}
//	GET    /watches     (list standing watches)
//	POST   /watches     {"query":"q","high":1000000,"low":900000}
//	DELETE /watches/q
//	POST   /watches/evaluate
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"skimsketch/internal/checkpoint"
	"skimsketch/internal/cluster"
	"skimsketch/internal/core"
	"skimsketch/internal/engine"
	"skimsketch/internal/monitor"
	"skimsketch/internal/serve"
)

// mergerInFlight caps the SKSP frames of one connection a merger
// admits at once, since its admission waits on shard round trips. Each
// such frame holds its decoded updates, 16 bytes each and at most 2 Mi
// of them in a 4 MiB frame (2 wire bytes each at least): 32 MiB, and as
// much again in the merger's per-shard copy plus up to 4 MiB of shard
// bodies while it routes them. The cap keeps a connection's worst case
// near 8 × 68 MiB; a typical 1024-update frame holds about 36 KiB. A
// node admits one frame at a time, in arrival order: its admission
// never waits on the network, and its windowed synopses depend on that
// order.
const mergerInFlight = 8

// options collects every flag so run is testable without a flag set.
type options struct {
	addr       string
	streamAddr string
	tables     int
	buckets    int
	seed       uint64
	workers    int
	qworkers   int

	role           string
	clusterConfig  string
	clusterTimeout time.Duration

	tenantMaxWords   int
	tenantMaxPending int64
	watchInterval    time.Duration

	checkpointDir      string
	checkpointInterval time.Duration

	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
	shutdownTimeout   time.Duration
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("sketchd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.streamAddr, "listen.stream", "", "SKSP binary streaming ingest listen address (empty = disabled); see docs/FORMATS.md")
	fs.IntVar(&o.tables, "tables", 7, "default sketch tables d")
	fs.IntVar(&o.buckets, "buckets", 2048, "default sketch buckets b")
	fs.Uint64Var(&o.seed, "seed", 42, "default sketch seed")
	fs.IntVar(&o.workers, "ingest.workers", 0, "ingest pipeline shard workers (<= 0 = one per CPU)")
	fs.IntVar(&o.qworkers, "query.workers", 0, "domain-scan goroutines per /answer's skim on a node (0 or 1 = sequential, -1 = one per CPU; a merger's skim is always sequential); answers are bit-identical for every setting")
	fs.StringVar(&o.role, "role", "single", "process role: single (standalone), shard (cluster member; same server, conventionally with -checkpoint.dir), or merger (routes ingest across -cluster.config shards and answers global joins)")
	fs.StringVar(&o.clusterConfig, "cluster.config", "", "merger: path to the static JSON membership file {\"shards\":[{\"name\":...,\"addr\":\"http://...\"}]}")
	fs.DurationVar(&o.clusterTimeout, "cluster.timeout", 5*time.Second, "merger: deadline on every cross-node call (routing, pulls, broadcasts)")
	fs.IntVar(&o.tenantMaxWords, "tenant.max-synopsis-words", 0, "default per-tenant synopsis memory quota in sketch words (0 = unlimited); override per tenant via POST /tenants")
	fs.Int64Var(&o.tenantMaxPending, "tenant.max-pending-updates", 0, "default per-tenant ingest queue-share quota in pending updates (0 = unlimited); override per tenant via POST /tenants")
	fs.DurationVar(&o.watchInterval, "watch.interval", 0, "periodic standing-watch evaluation interval (0 = evaluate only via POST /watches/evaluate)")
	fs.StringVar(&o.checkpointDir, "checkpoint.dir", "", "directory for crash-safe checkpoints (empty = no persistence)")
	fs.DurationVar(&o.checkpointInterval, "checkpoint.interval", 30*time.Second, "periodic checkpoint interval (0 = only the final checkpoint on shutdown)")
	fs.DurationVar(&o.readHeaderTimeout, "http.read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	fs.DurationVar(&o.writeTimeout, "http.write-timeout", 60*time.Second, "http.Server WriteTimeout; bound it above the slowest expected /answer")
	fs.DurationVar(&o.idleTimeout, "http.idle-timeout", 120*time.Second, "http.Server IdleTimeout for keep-alive connections")
	fs.DurationVar(&o.shutdownTimeout, "shutdown.timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return o, nil
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, os.Stdout); err != nil {
		log.Fatal("sketchd: ", err)
	}
}

// run is the whole server lifecycle for every role: build the backend
// (for a node: engine, restored checkpoint, ingest pipeline), serve
// until ctx is canceled (the signal handler), then shut down gracefully
// — stop the listeners, drain in-flight requests, and for a node drain
// and stop the ingest pipeline and write the final checkpoint. A nil
// return is a clean exit (process status 0).
func run(ctx context.Context, opts options, out io.Writer) error {
	var (
		backend serve.Backend
		desc    string
		eng     *engine.Engine // a node's; nil on a merger
		node    *cluster.Node
		mgr     *checkpoint.Manager
	)
	inFlight := 1 // SKSP frames of one connection in admission at once
	switch opts.role {
	case "", "single", "shard":
		var err error
		if eng, node, mgr, err = startNode(opts, out); err != nil {
			return err
		}
		backend, desc = node, fmt.Sprintf("default sketch %dx%d", opts.tables, opts.buckets)
	case "merger":
		if opts.clusterConfig == "" {
			return errors.New("-role=merger requires -cluster.config")
		}
		cfg, err := cluster.LoadConfig(opts.clusterConfig)
		if err != nil {
			return err
		}
		m, err := cluster.NewMerger(cfg, cluster.MergerOptions{Timeout: opts.clusterTimeout})
		if err != nil {
			return err
		}
		backend, inFlight = m, mergerInFlight
		desc = fmt.Sprintf("merger: %d shards, timeout %s", len(cfg.Shards), opts.clusterTimeout)
	default:
		return fmt.Errorf("unknown -role %q: want single, shard, or merger", opts.role)
	}

	srv := serve.New(backend)
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	// The SKSP listener shares the backend (for a node: the engine and
	// the dedupe window) and the shutdown drain with the HTTP front end.
	var sksp *serve.Listener
	if opts.streamAddr != "" {
		sln, err := net.Listen("tcp", opts.streamAddr)
		if err != nil {
			ln.Close()
			return err
		}
		sksp = srv.Listen(sln, inFlight)
	}
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: opts.readHeaderTimeout,
		WriteTimeout:      opts.writeTimeout,
		IdleTimeout:       opts.idleTimeout,
	}
	fmt.Fprintf(out, "sketchd listening on %s (%s)\n", ln.Addr(), desc)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	streamErr := make(chan error, 1)
	if sksp != nil {
		fmt.Fprintf(out, "sketchd %s\n", sksp)
		go func() { streamErr <- sksp.Serve() }()
	}

	// Periodic checkpoints and watch evaluation, stopped (and awaited)
	// before the final drain so no tick runs during it and the two
	// checkpoint writers never interleave.
	var loops sync.WaitGroup
	loopCtx, stopLoops := context.WithCancel(ctx)
	defer stopLoops()
	if mgr != nil && opts.checkpointInterval > 0 {
		loops.Add(1)
		go func() {
			defer loops.Done()
			mgr.Run(loopCtx, opts.checkpointInterval, eng.Snapshot, func(err error) {
				log.Print("sketchd: periodic checkpoint: ", err)
			})
		}()
	}
	if opts.watchInterval > 0 {
		loops.Add(1)
		go func() {
			defer loops.Done()
			evaluateWatches(loopCtx, srv, opts.watchInterval)
		}()
	}

	select {
	case err := <-serveErr:
		// The listener died on its own — not a requested shutdown.
		return err
	case err := <-streamErr:
		return fmt.Errorf("sksp listener: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "sketchd shutting down")
	// Flip readiness first: /healthz now answers 503, steering load
	// balancers and harnesses away while in-flight requests drain.
	srv.SetDraining()

	// 1. Stop accepting connections and drain in-flight requests.
	shCtx, cancel := context.WithTimeout(context.Background(), opts.shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		// Stragglers past the grace period are cut off; their updates were
		// either fully accepted (and will be flushed below) or rejected.
		log.Print("sketchd: shutdown grace period expired: ", err)
		httpSrv.Close()
	}
	<-serveErr // Serve has returned (http.ErrServerClosed)

	// Drain the SKSP listener after the HTTP one: every ACKed frame is
	// now admitted for the Flush below; un-ACKed frames will be replayed
	// by their clients on reconnect.
	if sksp != nil {
		sksp.Shutdown()
	}
	stopLoops()
	loops.Wait()
	if eng == nil {
		return nil // a merger holds no synopses: shards own persistence
	}

	// 2. Drain the ingest pipeline so every accepted update is folded
	// into its synopsis.
	eng.Flush()
	eng.StopIngest()

	// 3. Final checkpoint: the state a restarted sketchd resumes from,
	// bit-identical to what this process would have answered.
	if mgr != nil {
		if err := mgr.Save(eng.Snapshot); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		fmt.Fprintf(out, "sketchd final checkpoint written to %s\n", mgr.CurrentPath())
	}
	return nil
}

// startNode builds a node's engine, restores the newest checkpoint
// (before the ingest pipeline starts and the listeners open:
// Engine.Restore requires an empty, quiescent engine) and starts the
// pipeline, without which the node refuses every update.
func startNode(opts options, out io.Writer) (*engine.Engine, *cluster.Node, *checkpoint.Manager, error) {
	eng, err := engine.New(engine.Options{
		SketchConfig: core.Config{Tables: opts.tables, Buckets: opts.buckets, Seed: opts.seed},
		QueryWorkers: opts.qworkers,
		DefaultQuota: engine.Quota{
			MaxSynopsisWords:  opts.tenantMaxWords,
			MaxPendingUpdates: opts.tenantMaxPending,
		},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	node := cluster.NewNode(eng)
	var mgr *checkpoint.Manager
	if opts.checkpointDir != "" {
		if mgr, err = checkpoint.NewManager(opts.checkpointDir); err != nil {
			return nil, nil, nil, err
		}
		switch path, err := mgr.Load(node.ReadCheckpoint); {
		case err == nil:
			fmt.Fprintf(out, "sketchd restored checkpoint %s\n", path)
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			fmt.Fprintf(out, "sketchd starting fresh (no checkpoint in %s)\n", opts.checkpointDir)
		default:
			return nil, nil, nil, err
		}
	}
	workers := opts.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := eng.StartIngest(engine.IngestConfig{Workers: workers}); err != nil {
		return nil, nil, nil, err
	}
	fmt.Fprintf(out, "sketchd ingest pipeline: %d workers\n", workers)
	return eng, node, mgr, nil
}

// evaluateWatches runs every standing watch each interval until ctx is
// done — through the backend's answer, so a merger's watches see the
// global estimate and a node's hit its answer cache when nothing
// changed — logging state flips, not every tick spent in alert.
func evaluateWatches(ctx context.Context, srv *serve.Server, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	lastTransitions := make(map[monitor.WatchKey]int64)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		sts, err := srv.EvaluateWatches(ctx, "")
		if err != nil {
			log.Print("sketchd: watch evaluation: ", err)
		}
		for _, st := range sts {
			key := monitor.WatchKey{Tenant: st.Tenant, Query: st.Query}
			if st.Transitions == lastTransitions[key] {
				continue
			}
			lastTransitions[key] = st.Transitions
			state := "cleared"
			if st.State == monitor.Alert {
				state = "raised"
			}
			log.Printf("sketchd: watch %s/%s %s: estimate %d vs band [low %d, high %d]",
				st.Tenant, st.Query, state, st.LastEstimate, st.Low, st.High)
		}
	}
}
