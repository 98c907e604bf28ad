package core

import (
	"bytes"
	"reflect"
	"testing"

	"sigil/internal/dbi"
	"sigil/internal/trace"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// diffMode is one profiling configuration the spec differential covers:
// the three paper modes plus an eviction-heavy variant that forces the FIFO
// limit, cache invalidation and chunk recycling into play.
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

// specRun profiles prog once with the production Tool and the spec side by
// side over one substrate, returning both results and, when the mode asks
// for events, both event streams.
func specRun(t *testing.T, prog *vm.Program, input []byte, mode diffMode) (prod, spec *Result, prodEv, specEv []trace.Event) {
	t.Helper()
	opts := mode.opts
	var buf *trace.Buffer
	if mode.events {
		buf = &trace.Buffer{}
		opts.Events = buf
	}
	sub := newSubstrate()
	tool := mustNew(sub, opts)
	st := newSpecTool(sub, opts)
	if _, err := dbi.Run(prog, refPair{tool, st}, input); err != nil {
		t.Fatalf("%s: %v", mode.name, err)
	}
	prod, err := tool.Result()
	if err != nil {
		t.Fatal(err)
	}
	if buf != nil {
		prodEv = buf.Events
	}
	return prod, st.result(), prodEv, st.emitted
}

// assertResultsIdentical demands the complete classification output of
// production and spec match: per-context aggregates, edges, re-use
// histograms, line report, shadow accounting, the external
// producer/consumer totals, and the serialized profile bytes.
func assertResultsIdentical(t *testing.T, prod, spec *Result) {
	t.Helper()
	if !reflect.DeepEqual(prod.Comm, spec.Comm) {
		for id := range prod.Comm {
			if id < len(spec.Comm) && prod.Comm[id] != spec.Comm[id] {
				t.Errorf("ctx %d (%s): prod %+v, spec %+v",
					id, prod.CtxName(int32(id)), prod.Comm[id], spec.Comm[id])
			}
		}
		if len(prod.Comm) != len(spec.Comm) {
			t.Errorf("comm length: prod %d, spec %d", len(prod.Comm), len(spec.Comm))
		}
	}
	if !reflect.DeepEqual(prod.Edges, spec.Edges) {
		t.Errorf("edges differ:\nprod %+v\nspec %+v", prod.Edges, spec.Edges)
	}
	if !reflect.DeepEqual(prod.Reuse, spec.Reuse) {
		for id := range prod.Reuse {
			if id < len(spec.Reuse) && !reflect.DeepEqual(prod.Reuse[id], spec.Reuse[id]) {
				t.Errorf("reuse ctx %d (%s): prod %+v, spec %+v",
					id, prod.CtxName(int32(id)), prod.Reuse[id], spec.Reuse[id])
			}
		}
		if len(prod.Reuse) != len(spec.Reuse) {
			t.Errorf("reuse length: prod %d, spec %d", len(prod.Reuse), len(spec.Reuse))
		}
	}
	if !reflect.DeepEqual(prod.KernelReuse, spec.KernelReuse) {
		t.Errorf("kernel reuse: prod %+v, spec %+v", prod.KernelReuse, spec.KernelReuse)
	}
	if !reflect.DeepEqual(prod.Lines, spec.Lines) {
		t.Errorf("line report: prod %+v, spec %+v", prod.Lines, spec.Lines)
	}
	if prod.Shadow != spec.Shadow {
		t.Errorf("shadow stats: prod %+v, spec %+v", prod.Shadow, spec.Shadow)
	}
	if prod.StartupBytes != spec.StartupBytes ||
		prod.KernelOutBytes != spec.KernelOutBytes ||
		prod.KernelInBytes != spec.KernelInBytes {
		t.Errorf("externals: prod %d/%d/%d, spec %d/%d/%d",
			prod.StartupBytes, prod.KernelOutBytes, prod.KernelInBytes,
			spec.StartupBytes, spec.KernelOutBytes, spec.KernelInBytes)
	}

	// Byte-identical profiles, literally: both results must serialize to the
	// same profile file bytes.
	var pb, sb bytes.Buffer
	if err := WriteProfile(&pb, prod); err != nil {
		t.Fatalf("serialize prod: %v", err)
	}
	if err := WriteProfile(&sb, spec); err != nil {
		t.Fatalf("serialize spec: %v", err)
	}
	if !bytes.Equal(pb.Bytes(), sb.Bytes()) {
		t.Error("serialized profiles are not byte-identical")
	}
}

// assertEventsIdentical demands production and spec emit the same event
// stream, event for event and field for field.
func assertEventsIdentical(t *testing.T, prod, spec []trace.Event) {
	t.Helper()
	if len(prod) != len(spec) {
		t.Errorf("event count: prod %d, spec %d", len(prod), len(spec))
	}
	n := min(len(prod), len(spec))
	for i := 0; i < n; i++ {
		if prod[i] != spec[i] {
			t.Errorf("event %d differs: prod %+v, spec %+v", i, prod[i], spec[i])
			return // the first divergence is the useful one
		}
	}
}

// diffWorkload runs one registry workload through the spec differential.
func diffWorkload(t *testing.T, name string, mode diffMode) {
	prog, input, err := workloads.Build(name, workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	prod, spec, prodEv, specEv := specRun(t, prog, input, mode)
	assertResultsIdentical(t, prod, spec)
	if mode.events {
		assertEventsIdentical(t, prodEv, specEv)
	}
}

// TestBatchedMatchesScalarOnWorkloads is the classifier's correctness pin:
// it runs every workload in the registry through the production batched
// classifier and the spec together, in every mode, and demands
// byte-identical profiles, edges, re-use histograms and event streams. (The
// name dates from when the oracle was a granule-at-a-time copy of the
// classifier; it is kept so the test's history stays continuous.)
func TestBatchedMatchesScalarOnWorkloads(t *testing.T) {
	names := workloads.Names()
	for _, mode := range diffModes() {
		t.Run(mode.name, func(t *testing.T) {
			ws := names
			if testing.Short() && mode.name != "baseline-events" {
				ws = names[:min(3, len(names))]
			}
			for _, name := range ws {
				t.Run(name, func(t *testing.T) { diffWorkload(t, name, mode) })
			}
		})
	}
}

// TestDifferentialAgainstReference runs the spec differential in the
// default configuration, with no event sink: the matrix above profiles
// baseline mode only with events on, and without a sink the Tool skips
// segment accounting entirely.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, name := range []string{"canneal", "vips", "dedup", "streamcluster", "bodytrack"} {
		t.Run(name, func(t *testing.T) { diffWorkload(t, name, diffMode{name: "baseline"}) })
	}
}
