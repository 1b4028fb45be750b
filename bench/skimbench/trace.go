package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory for trace.json. Every span records its
// name, start, end, parent and request id. A nil tracer records nothing,
// which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []spanRecord
}

type spanRecord struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    int64  `json:"req"`   // request id, -1 when the span is not one request
	Start  int64  `json:"start"` // ns since the trace began
	End    int64  `json:"end"`
}

// span is an open span; finish records it.
type span struct {
	tr     *tracer
	id     int64
	parent int64
	name   string
	req    int64
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent *span, req int64) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := &span{tr: t, id: id, name: name, req: req, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

func (s *span) finish() {
	if s == nil {
		return
	}
	t := s.tr
	rec := spanRecord{ID: s.id, Parent: s.parent, Name: s.name, Req: s.req,
		Start: int64(s.start.Sub(t.t0)), End: int64(time.Since(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// selfTime is the per-name total of span durations and self times. A
// span's self time is its duration minus the part of it that its child
// spans cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*selfTime)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered(s.Start, s.End, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves every span and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	data, err := json.Marshal(struct {
		Spans []spanRecord `json:"spans"`
		Self  []selfTime   `json:"selfTime"`
	}{spans, t.selfTimes()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
