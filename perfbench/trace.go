package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names the benchmark records around its calls into each layer.
const (
	spanInstance  = "offline.instance" // one exact solve plus its checks
	spanCell      = "offline.milp_cell"
	spanSolve     = "floorplanner.solve"
	spanCheck     = "guard.check"
	spanEnumerate = "core.enumerate"
	spanBuild     = "model.build"
	spanLPRoot    = "lp.root"
	spanMILP      = "milp.solve"
	spanRequest   = "serve.request" // due time to checked answer
	spanRoundTrip = "http.roundtrip"
	spanEvent     = "online.event"
	spanFallback  = "session.fallback"
	spanMER       = "session.mer"
	spanRelocate  = "bitstream.relocate"
)

// spanWorkload names the workload that records each self-timed span.
var spanWorkload = map[string]string{
	spanInstance: "offline", spanSolve: "offline", spanCheck: "offline serve", spanEnumerate: "offline",
	spanRequest: "serve", spanRoundTrip: "serve",
	spanEvent: "online", spanFallback: "online",
}

// span is one timed call. Spans of one solve, request or event share Op;
// Parent is the id of the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run measures end-to-end metrics.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose bounds the caller measured (an open-loop
// request starts at its due time, not when the tracer sees it).
func (t *tracer) record(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// durations returns the closed spans' durations in milliseconds, by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.End >= s.Start {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each closed span's self time in milliseconds, by
// name: its duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(self)/1e6)
	}
	return out
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, in := range iv {
		a, b := max(in[0], cur), min(in[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
