package core

import (
	"bytes"
	"reflect"
	"testing"

	"sigil/internal/trace"
	"sigil/internal/workloads"
)

// diffMode is one profiling configuration the batched/scalar differential
// covers: the three paper modes plus an eviction-heavy variant that forces
// the FIFO limit, cache invalidation and chunk recycling into play.
type diffMode struct {
	name   string
	opts   Options
	events bool
}

func diffModes() []diffMode {
	return []diffMode{
		{"baseline-events", Options{}, true},
		{"reuse", Options{TrackReuse: true}, false},
		{"line", Options{LineGranularity: true}, false},
		{"reuse-evicting", Options{TrackReuse: true, MaxShadowChunks: 4}, false},
	}
}

// diffRun profiles one workload with the batched path (scalar=false) or the
// retained scalar reference (scalar=true), capturing the event stream when
// the mode asks for it.
func diffRun(t *testing.T, workload string, mode diffMode, scalar bool) (*Result, []trace.Event) {
	t.Helper()
	prog, input, err := workloads.Build(workload, workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	opts := mode.opts
	opts.refScalar = scalar
	var buf *trace.Buffer
	if mode.events {
		buf = &trace.Buffer{}
		opts.Events = buf
	}
	res, err := Run(prog, opts, input)
	if err != nil {
		t.Fatalf("%s/%s scalar=%v: %v", workload, mode.name, scalar, err)
	}
	if buf == nil {
		return res, nil
	}
	return res, buf.Events
}

// assertResultsIdentical demands the complete classification output of the
// two paths match: per-context aggregates, edges, re-use histograms, line
// report, shadow accounting and the external producer/consumer totals.
func assertResultsIdentical(t *testing.T, batched, scalar *Result) {
	t.Helper()
	if !reflect.DeepEqual(batched.Comm, scalar.Comm) {
		for id := range batched.Comm {
			if id < len(scalar.Comm) && batched.Comm[id] != scalar.Comm[id] {
				t.Errorf("ctx %d (%s): batched %+v, scalar %+v",
					id, batched.CtxName(int32(id)), batched.Comm[id], scalar.Comm[id])
			}
		}
		if len(batched.Comm) != len(scalar.Comm) {
			t.Errorf("comm length: batched %d, scalar %d", len(batched.Comm), len(scalar.Comm))
		}
	}
	if !reflect.DeepEqual(batched.Edges, scalar.Edges) {
		t.Errorf("edges differ:\nbatched %+v\nscalar  %+v", batched.Edges, scalar.Edges)
	}
	if !reflect.DeepEqual(batched.Reuse, scalar.Reuse) {
		for id := range batched.Reuse {
			if id < len(scalar.Reuse) && !reflect.DeepEqual(batched.Reuse[id], scalar.Reuse[id]) {
				t.Errorf("reuse ctx %d (%s): batched %+v, scalar %+v",
					id, batched.CtxName(int32(id)), batched.Reuse[id], scalar.Reuse[id])
			}
		}
		if len(batched.Reuse) != len(scalar.Reuse) {
			t.Errorf("reuse length: batched %d, scalar %d", len(batched.Reuse), len(scalar.Reuse))
		}
	}
	if !reflect.DeepEqual(batched.KernelReuse, scalar.KernelReuse) {
		t.Errorf("kernel reuse: batched %+v, scalar %+v", batched.KernelReuse, scalar.KernelReuse)
	}
	if !reflect.DeepEqual(batched.Lines, scalar.Lines) {
		t.Errorf("line report: batched %+v, scalar %+v", batched.Lines, scalar.Lines)
	}
	if batched.Shadow != scalar.Shadow {
		t.Errorf("shadow stats: batched %+v, scalar %+v", batched.Shadow, scalar.Shadow)
	}
	if batched.StartupBytes != scalar.StartupBytes ||
		batched.KernelOutBytes != scalar.KernelOutBytes ||
		batched.KernelInBytes != scalar.KernelInBytes {
		t.Errorf("externals: batched %d/%d/%d, scalar %d/%d/%d",
			batched.StartupBytes, batched.KernelOutBytes, batched.KernelInBytes,
			scalar.StartupBytes, scalar.KernelOutBytes, scalar.KernelInBytes)
	}

	// Byte-identical profiles, literally: both results must serialize to the
	// same profile file bytes.
	var bb, sb bytes.Buffer
	if err := WriteProfile(&bb, batched); err != nil {
		t.Fatalf("serialize batched: %v", err)
	}
	if err := WriteProfile(&sb, scalar); err != nil {
		t.Fatalf("serialize scalar: %v", err)
	}
	if !bytes.Equal(bb.Bytes(), sb.Bytes()) {
		t.Error("serialized profiles are not byte-identical")
	}
}

// assertEventsIdentical demands the two paths emit the same event stream,
// event for event and field for field.
func assertEventsIdentical(t *testing.T, batched, scalar []trace.Event) {
	t.Helper()
	if len(batched) != len(scalar) {
		t.Errorf("event count: batched %d, scalar %d", len(batched), len(scalar))
	}
	n := min(len(batched), len(scalar))
	for i := 0; i < n; i++ {
		if batched[i] != scalar[i] {
			t.Errorf("event %d differs: batched %+v, scalar %+v", i, batched[i], scalar[i])
			return // the first divergence is the useful one
		}
	}
}

// TestBatchedMatchesScalarOnWorkloads is the tentpole's correctness pin: it
// runs every workload in the registry through the batched chunk-run
// classifier and the retained scalar reference, in every mode, and demands
// byte-identical profiles, edges, re-use histograms and event streams.
func TestBatchedMatchesScalarOnWorkloads(t *testing.T) {
	names := workloads.Names()
	for _, mode := range diffModes() {
		t.Run(mode.name, func(t *testing.T) {
			ws := names
			if testing.Short() && mode.name != "baseline-events" {
				ws = names[:min(3, len(names))]
			}
			for _, name := range ws {
				t.Run(name, func(t *testing.T) {
					batchedRes, batchedEv := diffRun(t, name, mode, false)
					scalarRes, scalarEv := diffRun(t, name, mode, true)
					assertResultsIdentical(t, batchedRes, scalarRes)
					if mode.events {
						assertEventsIdentical(t, batchedEv, scalarEv)
					}
				})
			}
		})
	}
}
