package workloads_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sigil/internal/core"
	"sigil/internal/trace"
	"sigil/internal/workloads"
)

// updateGolden regenerates testdata/golden.txt. The pins are meant to be
// generated once and then left alone: a change that moves them changed
// what Sigil reports.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.txt from the current build")

var goldenModes = []struct {
	name string
	opts core.Options
}{
	{"baseline", core.Options{}},
	{"reuse", core.Options{TrackReuse: true}},
	{"line", core.Options{LineGranularity: true}},
}

const goldenPath = "testdata/golden.txt"

// TestGoldenDigests pins, for every registry workload at simsmall in each
// profiling mode, the SHA-256 of the serialized profile and of the event
// stream (one event per line, every field). Unlike the differential
// suites, which compare two paths of one build, these digests were taken
// from an earlier build, so an accounting slip that hits every path alike
// still shows.
func TestGoldenDigests(t *testing.T) {
	var got strings.Builder
	for _, name := range workloads.Names() {
		prog, input, err := workloads.Build(name, workloads.SimSmall)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range goldenModes {
			var buf trace.Buffer
			opts := m.opts
			opts.Events = &buf
			res, err := core.Run(prog, opts, input)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.name, err)
			}
			var prof bytes.Buffer
			if err := core.WriteProfile(&prof, res); err != nil {
				t.Fatalf("%s/%s: %v", name, m.name, err)
			}
			ev := sha256.New()
			for _, e := range buf.Events {
				fmt.Fprintf(ev, "%d %d %d %d %d %d %d %d %q\n",
					e.Kind, e.Ctx, e.Call, e.SrcCtx, e.SrcCall, e.Bytes, e.Ops, e.Time, e.Name)
			}
			fmt.Fprintf(&got, "%s %s profile %x\n", name, m.name, sha256.Sum256(prof.Bytes()))
			fmt.Fprintf(&got, "%s %s events %x\n", name, m.name, ev.Sum(nil))
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
		t.Errorf("golden has %d digests, this build produced %d", len(wantLines), len(gotLines))
	}
	for i := 0; i < len(wantLines) && i < len(gotLines); i++ {
		if wantLines[i] != gotLines[i] {
			t.Errorf("digest moved:\n  want %s\n  got  %s", wantLines[i], gotLines[i])
		}
	}
}
