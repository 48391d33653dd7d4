package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share Job; a
// span's Parent is the span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Job    int    `json:"job"` // job-list position; -1 for set-up
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the tracer started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced state: every method is a no-op, so untraced runs pay nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

// newTracer returns a tracer when on, else nil.
func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a span under a reserved id.
func (t *tracer) record(id, parent, job int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
}

// add stores a span under a fresh id and returns the id.
func (t *tracer) add(parent, job int, name string, start, end time.Time) int {
	id := t.id()
	t.record(id, parent, job, name, start, end)
	return id
}

// traceDoc is the span and count file a traced run writes.
type traceDoc struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Notes    []string          `json:"notes,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	// Counts are the exact per-layer counts over the counted jobs; they
	// repeat bit-for-bit on a seed.
	Counts map[string]uint64 `json:"counts"`
	Spans  []span            `json:"spans"`
}

// write stores the document as dir/<workload>-seed<N>.json.
func (d *traceDoc) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	data, err := json.Marshal(d)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", d.Workload, d.Seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
