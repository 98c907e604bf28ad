package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBeginRunResetsProgress(t *testing.T) {
	m := &Metrics{}
	m.Publish(&Snapshot{Instrs: 123, ShadowChunksLive: 7, EventsEmitted: 9})
	start := time.Unix(1700000000, 0)
	m.BeginRun(start, 5000, 2*time.Second)

	s := m.Snapshot()
	if s.Instrs != 0 || s.ShadowChunksLive != 0 || s.EventsEmitted != 0 {
		t.Errorf("progress counters not reset: %+v", s)
	}
	if s.RunEpoch != 1 {
		t.Errorf("RunEpoch = %d, want 1", s.RunEpoch)
	}
	if s.BudgetInstrs != 5000 || s.BudgetWallNanos != int64(2*time.Second) {
		t.Errorf("budgets not stored: %+v", s)
	}
	if s.RunStartNanos != start.UnixNano() {
		t.Errorf("RunStartNanos = %d, want %d", s.RunStartNanos, start.UnixNano())
	}
}

func TestSnapshotHelpers(t *testing.T) {
	s := Snapshot{
		InputUniqueBytes: 1, InputNonUniqueBytes: 2,
		OutputUniqueBytes: 3, OutputNonUniqueBytes: 4,
		LocalUniqueBytes: 5, LocalNonUniqueBytes: 6,
	}
	if got := s.TotalCommBytes(); got != 21 {
		t.Errorf("TotalCommBytes = %d, want 21", got)
	}

	s = Snapshot{Instrs: 1000, WallNanos: int64(2 * time.Second)}
	if got := s.InstrsPerSec(time.Time{}); got != 500 {
		t.Errorf("InstrsPerSec = %g, want 500", got)
	}
	start := time.Unix(100, 0)
	s = Snapshot{Instrs: 300, RunStartNanos: start.UnixNano()}
	if got := s.InstrsPerSec(start.Add(time.Second)); got != 300 {
		t.Errorf("live InstrsPerSec = %g, want 300", got)
	}
	if got := (Snapshot{}).InstrsPerSec(time.Time{}); got != 0 {
		t.Errorf("zero snapshot InstrsPerSec = %g, want 0", got)
	}
}

// TestPrometheusFormat checks every emitted line against the text
// exposition format: HELP/TYPE metadata per series and a parseable
// integer sample whose value round-trips from the snapshot.
func TestPrometheusFormat(t *testing.T) {
	m := &Metrics{}
	m.BeginRun(time.Unix(42, 0), 0, 0)
	m.Publish(&Snapshot{Instrs: 16384, ShadowBytesResident: 1 << 20})
	m.Samples.Store(3)
	snap := m.Snapshot()

	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	values := map[string]string{}
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Errorf("HELP line without text: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 || (parts[1] != "counter" && parts[1] != "gauge") {
				t.Fatalf("bad TYPE line: %q", line)
			}
			types[parts[0]] = parts[1]
		default:
			parts := strings.SplitN(line, " ", 2)
			if len(parts) != 2 {
				t.Fatalf("bad sample line: %q", line)
			}
			values[parts[0]] = parts[1]
		}
	}
	for name := range values {
		if _, ok := types[name]; !ok {
			t.Errorf("series %s has no TYPE metadata", name)
		}
	}
	for name, want := range map[string]uint64{
		"sigil_instructions_total":    16384,
		"sigil_shadow_bytes_resident": 1 << 20,
		"sigil_samples_total":         3,
		"sigil_run_epoch":             1,
	} {
		got, err := strconv.ParseUint(values[name], 10, 64)
		if err != nil || got != want {
			t.Errorf("%s = %q, want %d (%v)", name, values[name], want, err)
		}
	}
	if !strings.Contains(buf.String(), "sigil_run_start_seconds 42.000") {
		t.Errorf("missing run start series:\n%s", buf.String())
	}
	// Counter/gauge suffix convention: every *_total series is a counter.
	for name, kind := range types {
		if strings.HasSuffix(name, "_total") && kind != "counter" {
			t.Errorf("%s declared %s, want counter", name, kind)
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	m := &Metrics{}
	m.BeginRun(time.Now(), 0, 0)
	m.Publish(&Snapshot{Instrs: 777})
	srv, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, hdr := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "sigil_instructions_total 777") {
		t.Errorf("/metrics: %d\n%s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q lacks exposition version", ct)
	}

	code, body, _ = get("/metrics.json")
	var snap Snapshot
	if code != http.StatusOK || json.Unmarshal([]byte(body), &snap) != nil || snap.Instrs != 777 {
		t.Errorf("/metrics.json: %d\n%s", code, body)
	}

	code, body, _ = get("/debug/vars")
	var vars map[string]json.RawMessage
	if code != http.StatusOK || json.Unmarshal([]byte(body), &vars) != nil {
		t.Fatalf("/debug/vars: %d\n%s", code, body)
	}
	if _, ok := vars["sigil"]; !ok {
		t.Errorf("/debug/vars missing sigil var: %s", body)
	}

	if code, _, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
	if code, body, _ = get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: %d\n%s", code, body)
	}
	if code, _, _ = get("/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", code)
	}
}

// TestServeExtraEndpoints covers the injection seam higher layers use to
// mount routes this package cannot import (e.g. /debug/flightrecorder).
func TestServeExtraEndpoints(t *testing.T) {
	m := &Metrics{}
	srv, err := Serve("127.0.0.1:0", m, Endpoint{
		Pattern: "/debug/flightrecorder",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"events":[]}`)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "events") {
		t.Errorf("/debug/flightrecorder: %d %s", resp.StatusCode, body)
	}
}

// TestServeTwice covers the expvar publish-once path: a second server (a
// second run in the same process) must not panic and must serve the newer
// metrics block.
func TestServeTwice(t *testing.T) {
	m1 := &Metrics{}
	srv1, err := Serve("127.0.0.1:0", m1)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	m2 := &Metrics{}
	m2.Publish(&Snapshot{Instrs: 42})
	srv2, err := Serve("127.0.0.1:0", m2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := http.Get("http://" + srv2.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"instrs": 42`) && !strings.Contains(string(body), `"instrs":42`) {
		t.Errorf("expvar serves stale metrics: %s", body)
	}
}

func TestHeartbeatFires(t *testing.T) {
	var buf syncBuffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	m := &Metrics{}
	m.BeginRun(time.Now(), 1000, time.Minute)
	m.Publish(&Snapshot{Instrs: 100})

	h := StartHeartbeat(log, m, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for buf.Count("heartbeat") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.Stop()

	out := buf.String()
	if !strings.Contains(out, `"msg":"heartbeat"`) {
		t.Fatalf("no heartbeat logged:\n%s", out)
	}
	if !strings.Contains(out, `"instrs":100`) || !strings.Contains(out, `"budget_instrs_left":900`) {
		t.Errorf("heartbeat missing progress fields:\n%s", out)
	}
	if !strings.Contains(out, `"final":true`) {
		t.Errorf("Stop did not emit a final beat:\n%s", out)
	}
}

// TestTextCoversEverySnapshotField pins text ≡ Snapshot: every field is
// set to a distinct sentinel via reflection and must surface, as its raw
// decimal value, in the -telemetry-dump text rendering. A field added to
// Snapshot without a Text line fails here by construction.
func TestTextCoversEverySnapshotField(t *testing.T) {
	var s Snapshot
	v := reflect.ValueOf(&s).Elem()
	typ := v.Type()
	sentinels := make(map[string]string, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		// Same-width distinct sentinels: an 8-digit value can only appear
		// as a substring of another if they are equal.
		val := uint64(31000000 + i)
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(val)
		case reflect.Int64:
			f.SetInt(int64(val))
		default:
			t.Fatalf("unhandled Snapshot field kind %s for %s", f.Kind(), typ.Field(i).Name)
		}
		sentinels[typ.Field(i).Name] = strconv.FormatUint(val, 10)
	}
	text := s.Text()
	for name, want := range sentinels {
		if !strings.Contains(text, want) {
			t.Errorf("Text() omits Snapshot field %s (sentinel %s):\n%s", name, want, text)
		}
	}
}

// TestCounterTableCoversSnapshot is the drift check on the counter table:
// every Snapshot field except WallNanos surfaces in exactly one Prometheus
// series, no two table rows read the same field, and Text() names every
// series that carries a raw value, even on a zero snapshot.
func TestCounterTableCoversSnapshot(t *testing.T) {
	var probe Snapshot
	rowOf := map[*uint64]string{}
	for i := range counters {
		p := counters[i].field(&probe)
		if prev, dup := rowOf[p]; dup {
			t.Errorf("rows %s and %s read the same Snapshot field", prev, counters[i].name)
		}
		rowOf[p] = counters[i].name
	}

	s := sentinelSnapshot(t)
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var names []string
	seriesWith := map[string]int{} // sample value -> series carrying it
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		names = append(names, name)
		seriesWith[value]++
	}
	v := reflect.ValueOf(s)
	if len(names) != v.NumField()-1 {
		t.Errorf("%d Prometheus series for %d exported Snapshot fields", len(names), v.NumField()-1)
	}
	for i := range v.NumField() {
		field := v.Type().Field(i).Name
		if field == "WallNanos" {
			continue
		}
		var want string
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			want = strconv.FormatUint(f.Uint(), 10)
		case reflect.Int64:
			want = strconv.FormatFloat(float64(f.Int())/float64(time.Second), 'f', 3, 64)
		}
		if n := seriesWith[want]; n != 1 {
			t.Errorf("Snapshot.%s surfaces in %d Prometheus series, want 1", field, n)
		}
	}

	text := Snapshot{}.Text()
	for _, name := range names {
		if strings.HasSuffix(name, "_seconds") {
			continue // Text() shows the raw nanoseconds under the JSON key
		}
		if !strings.Contains(text, name+" ") {
			t.Errorf("Text() does not name series %s on a zero snapshot:\n%s", name, text)
		}
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	for _, format := range []string{"", "text", "json"} {
		log, err := NewLogger(&buf, format, slog.LevelInfo)
		if err != nil || log == nil {
			t.Errorf("NewLogger(%q): %v", format, err)
		}
	}
	if _, err := NewLogger(&buf, "yaml", slog.LevelInfo); err == nil {
		t.Error("NewLogger accepted an unknown format")
	}

	buf.Reset()
	log, _ := NewLogger(&buf, "json", slog.LevelInfo)
	log.Info("x", slog.Int("v", 1))
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Errorf("json log line does not parse: %v\n%s", err, buf.String())
	}
}

// syncBuffer is a mutex-guarded buffer for handlers written to from the
// heartbeat goroutine while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

func (b *syncBuffer) Count(substr string) int {
	return strings.Count(b.String(), fmt.Sprintf("%q", substr))
}
