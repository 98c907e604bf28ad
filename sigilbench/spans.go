package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one job share Job; Parent is the
// index of the enclosing span, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for one goroutine; the run writes them out
// when it ends. A nil *tracer records nothing, which is how the untraced
// run passes through the same job code.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	job   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// startJob makes the following spans belong to job id.
func (t *tracer) startJob(id int) {
	if t != nil {
		t.job = id
	}
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Job: t.job, Parent: parent, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = int64(time.Since(t.epoch))
		t.open = t.open[:len(t.open)-1]
	}
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each named span's self time: its duration minus the
// part of it its child spans cover. Spans are recorded on one goroutine,
// so children nest and never overlap.
func (t *tracer) selfTimes(name string) []time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur()-child[i])
		}
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
