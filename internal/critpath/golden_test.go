package critpath

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sigil/internal/core"
	"sigil/internal/trace"
	"sigil/internal/workloads"
)

// updateGolden regenerates testdata/golden.txt. The pins are meant to be
// generated once and then left alone: a change that moves them changed
// what the critical-path analyses report.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.txt from the current build")

const (
	goldenPath = "testdata/golden.txt"
	// goldenOpsPerByte prices data edges for the AnalyzeWithComm pin; any
	// non-zero value makes the comm edges part of the result.
	goldenOpsPerByte = 0.5
)

// TestGolden pins, for every registry workload at simsmall, what Analyze,
// AnalyzeWithComm and Schedule report on its event stream. The pins were
// taken from an earlier build, so a change to the chain builders that
// shifts any result shows even when the builders still agree with each
// other. Each stream is also encoded as a v3 file and decoded at several
// pool widths, which must give back the in-memory trace exactly.
func TestGolden(t *testing.T) {
	var got strings.Builder
	for _, name := range workloads.Names() {
		prog, input, err := workloads.Build(name, workloads.SimSmall)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var buf trace.Buffer
		if _, err := core.Run(prog, core.Options{Events: &buf}, input); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := trace.FromBuffer(&buf)
		checkDecodedTrace(t, name, &buf, tr)

		a, err := Analyze(tr)
		if err != nil {
			t.Fatalf("%s: Analyze: %v", name, err)
		}
		fmt.Fprintf(&got, "%s analyze %s\n", name, goldenAnalysis(a))
		c, err := AnalyzeWithComm(tr, CommConfig{OpsPerByte: goldenOpsPerByte})
		if err != nil {
			t.Fatalf("%s: AnalyzeWithComm: %v", name, err)
		}
		fmt.Fprintf(&got, "%s comm %s\n", name, goldenAnalysis(c))
		for _, slots := range []int{2, 4} {
			s, err := Schedule(tr, slots)
			if err != nil {
				t.Fatalf("%s: Schedule(%d): %v", name, slots, err)
			}
			fmt.Fprintf(&got, "%s schedule slots=%d makespan=%d serial=%d load=%v cross=%d\n",
				name, s.Slots, s.Makespan, s.SerialOps, s.SlotLoad, s.CrossSlotBytes)
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("golden has %d lines, this build produced %d", len(wantLines), len(gotLines))
	}
	for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
		if wantLines[i] != gotLines[i] {
			t.Errorf("result moved:\n  want %s\n  got  %s", wantLines[i], gotLines[i])
		}
	}
}

func goldenAnalysis(a *Analysis) string {
	return fmt.Sprintf("serial=%d critical=%d segments=%d ctxs=%v chain=%q",
		a.SerialOps, a.CriticalOps, a.Segments, a.ChainCtxs, a.Chain)
}

// checkDecodedTrace round-trips buf through a multi-frame v3 file and
// checks every decode width reproduces want.
func checkDecodedTrace(t *testing.T, name string, buf *trace.Buffer, want *trace.Trace) {
	t.Helper()
	var file bytes.Buffer
	w := trace.NewWriterOptions(&file, trace.WriterOptions{FrameEvents: 256})
	for _, e := range buf.Events {
		if err := w.Emit(e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, workers := range []int{1, 2, 4} {
		tr, err := trace.ReadAllWorkers(bytes.NewReader(file.Bytes()), workers)
		if err != nil {
			t.Fatalf("%s: workers=%d: %v", name, workers, err)
		}
		if !reflect.DeepEqual(tr.Events, want.Events) || !reflect.DeepEqual(tr.Contexts, want.Contexts) {
			t.Fatalf("%s: workers=%d decodes a different trace", name, workers)
		}
	}
}
