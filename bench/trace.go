package main

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/uav-coverage/uavnet/internal/atomicfile"
)

// Span is one timed call at a layer boundary. Spans of one anchor subset or
// one server request share Sub. An aggregate span stands for Count calls of
// the same function made under one parent (per-call spans for every matcher
// call would run to millions at m = 900): Start and End bound the first and
// last call and Busy is their summed duration. Counts holds the work the
// call did, counted where it happened.
type Span struct {
	Name   string           `json:"name"`
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Sub    string           `json:"sub,omitempty"`
	Count  int              `json:"count,omitempty"`
	Busy   int64            `json:"busy_ns,omitempty"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// Dur is the span's wall duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// covered is the part of its parent's interval the span accounts for: its
// summed call time when it aggregates calls, its duration otherwise.
func (s Span) covered() int64 {
	if s.Busy > 0 {
		return s.Busy
	}
	return s.Dur()
}

// Tracer keeps spans in memory; Write saves them once, at the end of the
// run. Times are nanoseconds on the monotonic clock since the tracer's
// creation. Now may be read from any goroutine; spans are recorded from one
// at a time.
type Tracer struct {
	t0    time.Time
	spans []Span
}

// NewTracer starts a trace clock.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Now reads the trace clock.
func (t *Tracer) Now() int64 { return int64(time.Since(t.t0)) }

// Add records a span and returns its id, which its children name as their
// parent.
func (t *Tracer) Add(s Span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// Begin opens a span starting now and returns its id. The clock is read
// after the span is stored, so growing the span list is not timed.
func (t *Tracer) Begin(name string, parent int, sub string) int {
	id := t.Add(Span{Name: name, Parent: parent, Sub: sub})
	t.spans[id-1].Start = t.Now()
	return id
}

// Finish closes the span with the given id at end, attaching its counts.
func (t *Tracer) Finish(id int, end int64, counts map[string]int64) {
	s := &t.spans[id-1]
	s.End = end
	s.Counts = counts
}

// Spans returns the recorded spans (aliasing the tracer's memory).
func (t *Tracer) Spans() []Span { return t.spans }

// selfTimes returns each span's self time, keyed by span id: its duration
// minus the time its direct children cover.
func selfTimes(spans []Span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.Dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.covered()
		}
	}
	return self
}

// traceFile is the layout of the trace JSON file.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Metrics  map[string]Metric `json:"metrics"`
	Spans    []Span            `json:"spans"`
}

// Write saves the trace and the per-layer metrics derived from it, through
// the same crash-safe path the program uses for its own files.
func (t *Tracer) Write(path string, cfg config, metrics map[string]Metric) error {
	data, err := json.Marshal(traceFile{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Metrics: metrics, Spans: t.spans,
	})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return atomicfile.WriteFile(path, data, 0o644)
}
