package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call recorded from the benchmark's side of a layer
// boundary. Spans of one client operation share its Op id; probe spans
// hang under the "probe" root. Times are nanoseconds since the tracer
// was created.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	Op      string `json:"op,omitempty"`
	Kind    string `json:"kind,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	DueNS   int64  `json:"due_ns,omitempty"`
	Count   int    `json:"count,omitempty"` // calls covered by a batched probe span
}

// tracer keeps spans and counter snapshots in memory until the run
// ends. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	counters []counterSnapshot
}

// counterSnapshot is the harness counters read at a window boundary.
type counterSnapshot struct {
	At       string             `json:"at"`
	NS       int64              `json:"ns"`
	Counters map[string]float64 `json:"counters"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// probe records a span around one call (or one timed batch of count
// calls) into a layer's exported API.
func (t *tracer) probe(name string, count int, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{Name: name, Parent: "probe", Count: count, StartNS: t.ns(start), EndNS: t.ns(end)})
}

func (t *tracer) snapshot(at string, when time.Time, c map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters = append(t.counters, counterSnapshot{At: at, NS: t.ns(when), Counters: c})
	t.mu.Unlock()
}

// write stores the trace as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"meta": meta, "counters": t.counters, "spans": t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
