package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own code, around the
// calls it makes into each layer; nothing inside the library is
// instrumented. Each operation gets a root span named "op.<kind>". Under
// it sit a "call.<api>" span for the public call that serves the operation
// (the one the untraced run times) and, beside it, one span per layer
// function the benchmark calls on the same input to measure that layer —
// sqlparse.ParseAndBind on the query text, cardest.NewQuery on the bound
// query, wire.EncodeRequest on the request, and so on (see layers.go).
// Layer spans repeat work the public call already did internally; they
// measure the layer's cost on that input, and are never subtracted from
// one another.

// span is one recorded interval. Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return t.spans[id-1].dur()
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// p returns the q-quantile of the named spans' durations in microseconds.
func (t *tracer) p(name string, q float64) float64 {
	return quantile(t.durations(name), q) / float64(time.Microsecond)
}

// write stores the spans as JSON lines in dir/<workload>-seed<seed>.jsonl.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
