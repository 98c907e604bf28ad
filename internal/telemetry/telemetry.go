// Package telemetry gives long profiling runs a live view of themselves.
// Instrumented runs are ~100x slower than native, so a multi-minute profile
// that emits nothing until it finishes (or trips a budget) is a black box;
// this package turns it into an observable process at negligible cost.
//
// The design is single-writer/multi-reader: the run goroutine publishes
// counters with atomic stores from the interpreter's existing
// 16K-instruction poll point (so the hot dispatch loop itself pays
// nothing), and any number of readers — the progress heartbeat, the
// /metrics endpoint, expvar — take consistent-enough point-in-time
// snapshots with atomic loads. No locks, no channels, no allocation on the
// sampling path.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Metrics is the shared live-counter block for one profiling process. The
// run counters are owned by the sampler (the run goroutine), which stores
// them through Publish; readers must go through Snapshot. The zero value is
// ready to use.
type Metrics struct {
	// Run framing, stored by BeginRun. BeginRun zeroes only the run
	// counters in c, never these or Samples.
	RunEpoch        atomic.Uint64 // runs begun in this process
	RunStartNanos   atomic.Int64  // wall-clock start of the current run
	BudgetInstrs    atomic.Uint64 // retired-instruction budget (0 = unlimited)
	BudgetWallNanos atomic.Int64  // wall-clock budget (0 = unlimited)

	// Samples counts sampler invocations (one per Publish).
	Samples atomic.Uint64

	// c holds the run counters, indexed like the counters table.
	c [len(counters)]atomic.Uint64
}

// BeginRun frames a new profiling run: the run counters reset and the
// run's budgets are published so heartbeats can report remaining headroom.
func (m *Metrics) BeginRun(start time.Time, budgetInstrs uint64, budgetWall time.Duration) {
	m.RunEpoch.Add(1)
	m.RunStartNanos.Store(start.UnixNano())
	m.BudgetInstrs.Store(budgetInstrs)
	m.BudgetWallNanos.Store(int64(budgetWall))
	for i := range counters {
		m.c[i].Store(0)
	}
}

// Publish stores every run counter from s and counts one sample. The
// framing fields of s (epoch, start, budgets, samples, wall) are ignored.
func (m *Metrics) Publish(s *Snapshot) {
	for i := range counters {
		m.c[i].Store(*counters[i].field(s))
	}
	m.Samples.Add(1)
}

// Snapshot returns a point-in-time copy of every counter. Individual loads
// are atomic; the snapshot as a whole is only as consistent as a running
// sampler allows, which is exactly what a progress view needs.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		RunEpoch:        m.RunEpoch.Load(),
		RunStartNanos:   m.RunStartNanos.Load(),
		BudgetInstrs:    m.BudgetInstrs.Load(),
		BudgetWallNanos: m.BudgetWallNanos.Load(),
		Samples:         m.Samples.Load(),
	}
	for i := range counters {
		*counters[i].field(&s) = m.c[i].Load()
	}
	return s
}

// Snapshot is one frozen view of the counters, the form that travels: it
// hangs off core.Result, renders as human text, JSON, and Prometheus text
// format, and backs the expvar export. Every field except the run framing
// (RunEpoch, RunStartNanos, BudgetInstrs, BudgetWallNanos, Samples and
// WallNanos) is a run counter with one row in the counters table.
type Snapshot struct {
	RunEpoch        uint64 `json:"run_epoch"`
	RunStartNanos   int64  `json:"run_start_nanos"`
	BudgetInstrs    uint64 `json:"budget_instrs,omitempty"`
	BudgetWallNanos int64  `json:"budget_wall_nanos,omitempty"`

	Instrs    uint64 `json:"instrs"`
	CallDepth uint64 `json:"call_depth"`
	Contexts  uint64 `json:"contexts"`
	HeapBytes uint64 `json:"heap_bytes"`
	MemPages  uint64 `json:"mem_pages"`

	InputUniqueBytes     uint64 `json:"input_unique_bytes"`
	InputNonUniqueBytes  uint64 `json:"input_nonunique_bytes"`
	OutputUniqueBytes    uint64 `json:"output_unique_bytes"`
	OutputNonUniqueBytes uint64 `json:"output_nonunique_bytes"`
	LocalUniqueBytes     uint64 `json:"local_unique_bytes"`
	LocalNonUniqueBytes  uint64 `json:"local_nonunique_bytes"`

	ShadowChunksAllocated uint64 `json:"shadow_chunks_allocated"`
	ShadowChunksLive      uint64 `json:"shadow_chunks_live"`
	ShadowChunksEvicted   uint64 `json:"shadow_chunks_evicted"`
	ShadowChunksPeak      uint64 `json:"shadow_chunks_peak"`
	ShadowBytesResident   uint64 `json:"shadow_bytes_resident"`
	ShadowBytesPeak       uint64 `json:"shadow_bytes_peak"`

	ShadowCacheHits      uint64 `json:"shadow_cache_hits"`
	ShadowCacheMisses    uint64 `json:"shadow_cache_misses"`
	ShadowChunksRecycled uint64 `json:"shadow_chunks_recycled"`

	ClassifySpans    uint64 `json:"classify_spans"`
	ClassifyRuns     uint64 `json:"classify_runs"`
	ClassifyGranules uint64 `json:"classify_granules"`

	EventsEmitted        uint64 `json:"events_emitted"`
	EventQueueDepth      uint64 `json:"event_queue_depth"`
	EventEmitStalls      uint64 `json:"event_emit_stalls"`
	EventFrames          uint64 `json:"event_frames"`
	EventBytesCompressed uint64 `json:"event_bytes_compressed"`
	EventsDropped        uint64 `json:"events_dropped"`
	EventRetries         uint64 `json:"event_retries"`
	EventSinkDegraded    uint64 `json:"event_sink_degraded"`

	CacheAccesses     uint64 `json:"cache_accesses"`
	CacheL1Misses     uint64 `json:"cache_l1_misses"`
	CacheLLMisses     uint64 `json:"cache_ll_misses"`
	CachePrefetches   uint64 `json:"cache_prefetches"`
	Branches          uint64 `json:"branches"`
	BranchMispredicts uint64 `json:"branch_mispredicts"`

	TraceSpans        uint64 `json:"trace_spans"`
	FlightRecorded    uint64 `json:"flight_recorded"`
	FlightOverwritten uint64 `json:"flight_overwritten"`

	Samples uint64 `json:"samples"`

	// WallNanos is the run's wall-clock duration, filled in when the run
	// completes (zero on live snapshots).
	WallNanos int64 `json:"wall_nanos,omitempty"`
}

// TotalCommBytes sums the six classification axes.
func (s Snapshot) TotalCommBytes() uint64 {
	return s.InputUniqueBytes + s.InputNonUniqueBytes +
		s.OutputUniqueBytes + s.OutputNonUniqueBytes +
		s.LocalUniqueBytes + s.LocalNonUniqueBytes
}

// InstrsPerSec estimates throughput over the run so far (or the whole run,
// once WallNanos is set).
func (s Snapshot) InstrsPerSec(now time.Time) float64 {
	elapsed := s.WallNanos
	if elapsed == 0 && s.RunStartNanos > 0 {
		elapsed = now.UnixNano() - s.RunStartNanos
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(s.Instrs) / (float64(elapsed) / float64(time.Second))
}

// counter declares one run counter: its Prometheus series, the Text() line
// it prints on, and the Snapshot field holding its value. Adding a counter
// is one Snapshot field plus one row in counters.
type counter struct {
	name  string // Prometheus series name
	kind  string // "counter" or "gauge"
	help  string
	group string // Text() line; rows of one group are contiguous
	field func(*Snapshot) *uint64
}

// counters is the run-counter table, in exposition order. Metrics, Publish,
// Snapshot, Text and WritePrometheus all iterate it.
var counters = [...]counter{
	// Interpreter progress.
	{"sigil_instructions_total", "counter", "Instructions retired by the current run", "progress", func(s *Snapshot) *uint64 { return &s.Instrs }},
	{"sigil_contexts", "gauge", "Calling contexts materialized", "progress", func(s *Snapshot) *uint64 { return &s.Contexts }},
	{"sigil_call_depth", "gauge", "Live call-stack depth", "progress", func(s *Snapshot) *uint64 { return &s.CallDepth }},
	{"sigil_heap_bytes", "gauge", "Program heap bytes bump-allocated", "progress", func(s *Snapshot) *uint64 { return &s.HeapBytes }},
	{"sigil_mem_pages", "gauge", "Program memory pages materialized", "progress", func(s *Snapshot) *uint64 { return &s.MemPages }},

	// Communication classification (the paper's two axes).
	{"sigil_comm_input_unique_bytes_total", "counter", "Unique bytes read from other producers", "comm", func(s *Snapshot) *uint64 { return &s.InputUniqueBytes }},
	{"sigil_comm_input_nonunique_bytes_total", "counter", "Repeat bytes read from other producers", "comm", func(s *Snapshot) *uint64 { return &s.InputNonUniqueBytes }},
	{"sigil_comm_output_unique_bytes_total", "counter", "Unique bytes consumed from this producer", "comm", func(s *Snapshot) *uint64 { return &s.OutputUniqueBytes }},
	{"sigil_comm_output_nonunique_bytes_total", "counter", "Repeat bytes consumed from this producer", "comm", func(s *Snapshot) *uint64 { return &s.OutputNonUniqueBytes }},
	{"sigil_comm_local_unique_bytes_total", "counter", "Unique bytes read by their own producer", "comm", func(s *Snapshot) *uint64 { return &s.LocalUniqueBytes }},
	{"sigil_comm_local_nonunique_bytes_total", "counter", "Repeat bytes read by their own producer", "comm", func(s *Snapshot) *uint64 { return &s.LocalNonUniqueBytes }},

	// Shadow memory footprint.
	{"sigil_shadow_chunks_allocated_total", "counter", "Shadow chunks ever materialized", "shadow", func(s *Snapshot) *uint64 { return &s.ShadowChunksAllocated }},
	{"sigil_shadow_chunks_live", "gauge", "Shadow chunks currently resident", "shadow", func(s *Snapshot) *uint64 { return &s.ShadowChunksLive }},
	{"sigil_shadow_chunks_evicted_total", "counter", "Shadow chunks dropped by the FIFO limit", "shadow", func(s *Snapshot) *uint64 { return &s.ShadowChunksEvicted }},
	{"sigil_shadow_chunks_peak", "gauge", "Peak shadow chunks resident", "shadow", func(s *Snapshot) *uint64 { return &s.ShadowChunksPeak }},
	{"sigil_shadow_bytes_resident", "gauge", "Shadow memory bytes currently resident", "shadow", func(s *Snapshot) *uint64 { return &s.ShadowBytesResident }},
	{"sigil_shadow_bytes_peak", "gauge", "Peak shadow memory bytes", "shadow", func(s *Snapshot) *uint64 { return &s.ShadowBytesPeak }},

	// Shadow lookup machinery: direct-mapped chunk-cache effectiveness and
	// buffer recycling under the FIFO limit.
	{"sigil_shadow_cache_hits_total", "counter", "Chunk lookups served by the direct-mapped cache", "shadow cache", func(s *Snapshot) *uint64 { return &s.ShadowCacheHits }},
	{"sigil_shadow_cache_misses_total", "counter", "Chunk lookups that fell through to the map", "shadow cache", func(s *Snapshot) *uint64 { return &s.ShadowCacheMisses }},
	{"sigil_shadow_chunks_recycled_total", "counter", "Chunk materializations that reused an evicted buffer", "shadow cache", func(s *Snapshot) *uint64 { return &s.ShadowChunksRecycled }},

	// Batched classifier amortization: per-chunk spans classified, the
	// state-uniform runs within them, and the granules those runs covered
	// (granules/runs is the average batching factor).
	{"sigil_classify_spans_total", "counter", "Per-chunk spans classified by the batched path", "classify", func(s *Snapshot) *uint64 { return &s.ClassifySpans }},
	{"sigil_classify_runs_total", "counter", "State-uniform runs classified by the batched path", "classify", func(s *Snapshot) *uint64 { return &s.ClassifyRuns }},
	{"sigil_classify_granules_total", "counter", "Granules covered by batched classification runs", "classify", func(s *Snapshot) *uint64 { return &s.ClassifyGranules }},

	// Event-file emission. Events emitted counts records accepted by the
	// sink; the rest mirror the async v3 writer's pipeline: batches queued
	// for the background encoder, Emit hand-offs that blocked on it, frames
	// written, and their on-wire (compressed) size.
	{"sigil_events_emitted_total", "counter", "Event-file records emitted", "events", func(s *Snapshot) *uint64 { return &s.EventsEmitted }},
	{"sigil_event_queue_depth", "gauge", "Event batches queued for the background encoder", "events", func(s *Snapshot) *uint64 { return &s.EventQueueDepth }},
	{"sigil_event_emit_stalls_total", "counter", "Event emissions that blocked on the encoder", "events", func(s *Snapshot) *uint64 { return &s.EventEmitStalls }},
	{"sigil_event_frames_total", "counter", "Event-file frames written", "events", func(s *Snapshot) *uint64 { return &s.EventFrames }},
	{"sigil_event_bytes_compressed_total", "counter", "Event-file bytes on the wire after compression", "events", func(s *Snapshot) *uint64 { return &s.EventBytesCompressed }},

	// Event-sink failure handling: events the writer discarded instead of
	// persisting (exact loss), sink writes the retry layer repeated, and
	// whether a degraded-mode writer has started shedding (0/1).
	{"sigil_events_dropped_total", "counter", "Event-file records discarded by the degraded sink (exact loss)", "sink", func(s *Snapshot) *uint64 { return &s.EventsDropped }},
	{"sigil_event_retries_total", "counter", "Event-sink writes repeated by the retry layer", "sink", func(s *Snapshot) *uint64 { return &s.EventRetries }},
	{"sigil_event_sink_degraded", "gauge", "Whether the event sink has started shedding events (0/1)", "sink", func(s *Snapshot) *uint64 { return &s.EventSinkDegraded }},

	// Substrate simulation.
	{"sigil_cache_accesses_total", "counter", "Simulated cache accesses", "sim", func(s *Snapshot) *uint64 { return &s.CacheAccesses }},
	{"sigil_cache_l1_misses_total", "counter", "Simulated L1 misses", "sim", func(s *Snapshot) *uint64 { return &s.CacheL1Misses }},
	{"sigil_cache_ll_misses_total", "counter", "Simulated last-level misses", "sim", func(s *Snapshot) *uint64 { return &s.CacheLLMisses }},
	{"sigil_cache_prefetches_total", "counter", "Simulated prefetches issued", "sim", func(s *Snapshot) *uint64 { return &s.CachePrefetches }},
	{"sigil_branches_total", "counter", "Simulated conditional branches", "sim", func(s *Snapshot) *uint64 { return &s.Branches }},
	{"sigil_branch_mispredicts_total", "counter", "Simulated branch mispredictions", "sim", func(s *Snapshot) *uint64 { return &s.BranchMispredicts }},

	// Run tracing: completed spans recorded by the tracing recorder, and
	// the flight-recorder ring's recorded/overwritten totals.
	{"sigil_trace_spans_total", "counter", "Completed tracing spans recorded this run", "tracing", func(s *Snapshot) *uint64 { return &s.TraceSpans }},
	{"sigil_flight_events_total", "counter", "Events recorded into the flight-recorder ring", "tracing", func(s *Snapshot) *uint64 { return &s.FlightRecorded }},
	{"sigil_flight_overwritten_total", "counter", "Flight-recorder events lost to ring wraparound", "tracing", func(s *Snapshot) *uint64 { return &s.FlightOverwritten }},
}

// Text renders the snapshot as a human-readable block, the form the CLI
// tools print behind -telemetry-dump: one line per counter group, each
// counter as its Prometheus series name and raw value, then the run
// framing. Every Snapshot field appears with its raw value (a
// reconciliation test pins text ≡ Snapshot fields); the derived MiB and
// duration forms are decoration on top, never replacements.
func (s Snapshot) Text() string {
	var sb strings.Builder
	for i := range counters {
		c := &counters[i]
		if i == 0 || c.group != counters[i-1].group {
			if i > 0 {
				sb.WriteByte('\n')
			}
			sb.WriteString(c.group + ":")
		}
		v := *c.field(&s)
		fmt.Fprintf(&sb, "  %s %d", c.name, v)
		if c.kind == "gauge" && strings.Contains(c.name, "_bytes") {
			fmt.Fprintf(&sb, " (%.1f MiB)", float64(v)/(1<<20))
		}
	}
	fmt.Fprintf(&sb, "\nrun:  sigil_run_epoch %d  sigil_samples_total %d  sigil_budget_instructions %d  run_start_nanos %d  budget_wall_nanos %d\n",
		s.RunEpoch, s.Samples, s.BudgetInstrs, s.RunStartNanos, s.BudgetWallNanos)
	fmt.Fprintf(&sb, "wall_nanos %d", s.WallNanos)
	if s.WallNanos > 0 {
		fmt.Fprintf(&sb, " (%s, %.0f instrs/sec)",
			time.Duration(s.WallNanos), s.InstrsPerSec(time.Time{}))
	}
	sb.WriteByte('\n')
	return sb.String()
}

// JSON renders the snapshot as a single JSON object.
func (s Snapshot) JSON() ([]byte, error) { return json.Marshal(s) }

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), one HELP/TYPE/sample triplet per series: the
// counter table, then the run framing.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for i := range counters {
		c := &counters[i]
		if err := writeSeries(w, c.name, c.kind, c.help, strconv.FormatUint(*c.field(&s), 10)); err != nil {
			return err
		}
	}
	seconds := func(ns int64) string {
		return strconv.FormatFloat(float64(ns)/float64(time.Second), 'f', 3, 64)
	}
	for _, f := range [...]struct{ name, kind, help, value string }{
		{"sigil_samples_total", "counter", "Telemetry sampler invocations", strconv.FormatUint(s.Samples, 10)},
		{"sigil_run_epoch", "gauge", "Profiling runs begun in this process", strconv.FormatUint(s.RunEpoch, 10)},
		{"sigil_budget_instructions", "gauge", "Retired-instruction budget (0 = unlimited)", strconv.FormatUint(s.BudgetInstrs, 10)},
		{"sigil_run_start_seconds", "gauge", "Wall-clock start of the current run", seconds(s.RunStartNanos)},
		{"sigil_budget_wall_seconds", "gauge", "Wall-clock budget in seconds (0 = unlimited)", seconds(s.BudgetWallNanos)},
	} {
		if err := writeSeries(w, f.name, f.kind, f.help, f.value); err != nil {
			return err
		}
	}
	return nil
}

func writeSeries(w io.Writer, name, kind, help, value string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, kind, name, value)
	return err
}
