package telemetry

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// updateExposition regenerates testdata/exposition.golden. Scrapers and
// run-report readers depend on these names, so a change that moves the
// golden adds or removes a user-visible series or key.
var updateExposition = flag.Bool("update-exposition", false, "rewrite testdata/exposition.golden from the current build")

const expositionGolden = "testdata/exposition.golden"

// sentinelSnapshot sets every Snapshot field to a distinct value, in the
// scheme TestTextCoversEverySnapshotField uses: same-width decimals, so no
// sentinel is a substring of another. Nanosecond fields are scaled by 1e6
// so their *_seconds series (rendered to the millisecond) stay distinct.
func sentinelSnapshot(t *testing.T) Snapshot {
	t.Helper()
	var s Snapshot
	v := reflect.ValueOf(&s).Elem()
	for i := range v.NumField() {
		val := uint64(31000000 + i)
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(val)
		case reflect.Int64:
			f.SetInt(int64(val) * int64(time.Millisecond))
		default:
			t.Fatalf("unhandled Snapshot field kind %s for %s", f.Kind(), v.Type().Field(i).Name)
		}
	}
	return s
}

// TestExpositionGolden pins the exported surface: every Prometheus series
// (name and type, in exposition order), every Snapshot JSON key (in field
// order, omitempty keys included), and the full rendering of a snapshot
// whose every field holds a distinct sentinel — the Prometheus text with
// its HELP and TYPE lines, and the JSON object. The sentinel rendering pins
// the help texts and which field each series and key reads.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := (Snapshot{}).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fmt.Fprintf(&got, "prom %s\n", rest)
		}
	}
	st := reflect.TypeOf(Snapshot{})
	for i := range st.NumField() {
		key, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		if key == "" || key == "-" {
			t.Fatalf("Snapshot.%s has no JSON key", st.Field(i).Name)
		}
		fmt.Fprintf(&got, "json %s\n", key)
	}

	s := sentinelSnapshot(t)
	got.WriteString("-- sentinel prometheus --\n")
	if err := s.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	js, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got.WriteString("-- sentinel json --\n")
	got.Write(js)
	got.WriteByte('\n')

	if *updateExposition {
		if err := os.WriteFile(expositionGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(expositionGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-exposition to create it)", err)
	}
	if got.String() != string(want) {
		gotLines := strings.Split(got.String(), "\n")
		wantLines := strings.Split(string(want), "\n")
		wantSet := make(map[string]bool, len(wantLines))
		for _, l := range wantLines {
			wantSet[l] = true
		}
		gotSet := make(map[string]bool, len(gotLines))
		for _, l := range gotLines {
			gotSet[l] = true
			if !wantSet[l] {
				t.Errorf("added: %s", l)
			}
		}
		for _, l := range wantLines {
			if !gotSet[l] {
				t.Errorf("removed: %s", l)
			}
		}
		t.Errorf("exposition differs from %s (order or content)", expositionGolden)
	}
}
