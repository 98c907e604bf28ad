package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"sigil/internal/core"
	"sigil/internal/trace"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %+v, benchmark declares %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %+v, benchmark declares %+v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) < 2 {
		t.Errorf("BENCHMARK.json names %d workloads, want at least 2", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
}

// lastLine runs the benchmark for one second and decodes the result line.
func lastLine(t *testing.T, workload string, seed uint64, traced bool) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, workload, seed, 1, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	doc := loadBenchmarkJSON(t)
	for _, mode := range []struct {
		traced bool
		want   []metric
	}{{false, doc.EndToEnd}, {true, doc.PerLayer}} {
		r := lastLine(t, "vips-reuse", DefaultSeed, mode.traced)
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", mode.traced, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(mode.want) {
			t.Errorf("trace=%v: printed %d metrics, BENCHMARK.json names %d", mode.traced, len(r.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s printed as %+v (present %v), want unit %s", mode.traced, m.Name, got, ok, m.Unit)
			}
		}
	}
}

// corruptedRun runs a workload's loop briefly with every job's outputs
// damaged and returns the bench for inspection.
func corruptedRun(t *testing.T, workload string, corrupt func(*output)) *bench {
	t.Helper()
	w, err := lookupWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(context.Background(), config{w: w, seed: DefaultSeed, corrupt: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	b.measure(time.Now().Add(300 * time.Millisecond))
	if b.attempted < warmupIterations+1 || b.failed != b.attempted {
		t.Errorf("%d of %d jobs failed, want all", b.failed, b.attempted)
	}
	if len(b.profile) != 0 || len(b.setup) != 0 {
		t.Errorf("failed jobs contributed %d timings", len(b.profile))
	}
	return b
}

func TestFlippedEventByteFailsJob(t *testing.T) {
	b := corruptedRun(t, "blackscholes-events", func(o *output) {
		o.events[len(o.events)/2] ^= 0x20
	})
	if !errors.Is(b.firstErr, trace.ErrCorrupt) {
		t.Errorf("first error %v, want trace.ErrCorrupt", b.firstErr)
	}
}

func TestPerturbedProfileCountFailsJob(t *testing.T) {
	b := corruptedRun(t, "dedup-shadow", func(o *output) {
		o.res.Edges[len(o.res.Edges)/2].Unique++
	})
	if b.firstErr == nil || !strings.Contains(b.firstErr.Error(), "edge") {
		t.Errorf("first error %v, want an edge conservation failure", b.firstErr)
	}
}

func TestEditedProfileRecordFailsJob(t *testing.T) {
	b := corruptedRun(t, "vips-reuse", func(o *output) {
		i := bytes.Index(o.profile, []byte("\ncost "))
		o.profile = append([]byte(nil), o.profile...)
		o.profile[i+len("\ncost 0 ")] ^= 1 // a digit of the first context's instruction count
	})
	if !errors.Is(b.firstErr, core.ErrProfileCorrupt) {
		t.Errorf("first error %v, want core.ErrProfileCorrupt", b.firstErr)
	}
}

func TestSeededInputs(t *testing.T) {
	for _, program := range []string{"dedup", "blackscholes"} {
		w := workload{program: program}
		for _, wl := range workloadTable {
			if wl.program == program {
				w = wl
			}
		}
		spec, err := w.setup(DefaultSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := seededInput(program, spec.input, 1)
		b, _ := seededInput(program, spec.input, 1)
		c, _ := seededInput(program, spec.input, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different inputs", program)
		}
		if len(a) != len(spec.input) || len(c) != len(spec.input) {
			t.Errorf("%s: seeded inputs are %d and %d bytes, Spec %d", program, len(a), len(c), len(spec.input))
		}
		if bytes.Equal(a, c) || bytes.Equal(a, spec.input) {
			t.Errorf("%s: seeds 0, 1 and 2 do not give three inputs", program)
		}
	}
}
