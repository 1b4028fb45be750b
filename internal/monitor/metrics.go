package monitor

import (
	"sync/atomic"
	"time"
)

// IngestMetrics is the counter set exported by the batched ingestion
// pipeline (engine workers, sketchd, expdriver). All fields are updated
// with atomics so the hot path never takes a lock; Snapshot assembles a
// consistent-enough view for dashboards and /stats.
type IngestMetrics struct {
	start time.Time

	// UpdatesEnqueued counts stream elements accepted into the pipeline.
	UpdatesEnqueued atomic.Int64
	// UpdatesApplied counts stream elements folded into synopses.
	UpdatesApplied atomic.Int64
	// UpdatesUnrouted counts accepted stream elements that no synopsis
	// listens to (their stream has no registered query). They are never
	// applied, so after a flush enqueued == applied + unrouted.
	UpdatesUnrouted atomic.Int64
	// Batches counts applied batches; together with UpdatesApplied it
	// yields the mean batch fill.
	Batches atomic.Int64
	// Folds counts the runs workers fold: one per route per worker
	// round, however many queued batches the run joins. UpdatesApplied
	// over Folds is the mean run length.
	Folds atomic.Int64
	// QueueDepth is the number of batch items currently sitting in worker
	// queues (a gauge: incremented on enqueue, decremented on apply).
	QueueDepth atomic.Int64
	// Flushes counts pipeline drain barriers (explicit Flush calls plus
	// the implicit quiesce before every query/snapshot/stats read).
	Flushes atomic.Int64
	// Rejected counts ingest admissions (single updates or whole batch
	// requests) refused for backpressure — full ingest queues — instead
	// of being enqueued: the 429 path in sketchd.
	Rejected atomic.Int64
}

// NewIngestMetrics returns a zeroed metric set with the rate clock
// started now.
func NewIngestMetrics() *IngestMetrics {
	return &IngestMetrics{start: time.Now()}
}

// IngestSnapshot is a point-in-time copy of the counters plus derived
// rates.
type IngestSnapshot struct {
	UpdatesEnqueued int64   `json:"updatesEnqueued"`
	UpdatesApplied  int64   `json:"updatesApplied"`
	UpdatesUnrouted int64   `json:"updatesUnrouted"`
	Batches         int64   `json:"batches"`
	Folds           int64   `json:"folds"`
	QueueDepth      int64   `json:"queueDepth"`
	Flushes         int64   `json:"flushes"`
	Rejected        int64   `json:"rejected"`
	AvgBatchFill    float64 `json:"avgBatchFill"`
	UpdatesPerSec   float64 `json:"updatesPerSec"`
	ElapsedSeconds  float64 `json:"elapsedSeconds"`
}

// Snapshot returns the current counter values and the derived mean batch
// fill and lifetime updates/sec rate.
func (m *IngestMetrics) Snapshot() IngestSnapshot {
	s := IngestSnapshot{
		UpdatesEnqueued: m.UpdatesEnqueued.Load(),
		UpdatesApplied:  m.UpdatesApplied.Load(),
		UpdatesUnrouted: m.UpdatesUnrouted.Load(),
		Batches:         m.Batches.Load(),
		Folds:           m.Folds.Load(),
		QueueDepth:      m.QueueDepth.Load(),
		Flushes:         m.Flushes.Load(),
		Rejected:        m.Rejected.Load(),
	}
	if s.Batches > 0 {
		s.AvgBatchFill = float64(s.UpdatesApplied) / float64(s.Batches)
	}
	s.ElapsedSeconds = time.Since(m.start).Seconds()
	if s.ElapsedSeconds > 0 {
		s.UpdatesPerSec = float64(s.UpdatesApplied) / s.ElapsedSeconds
	}
	return s
}
