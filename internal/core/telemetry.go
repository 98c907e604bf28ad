package core

import (
	"time"

	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/tracing"
)

// sampleInto fills a Snapshot from the tool's live counters, publishes it
// into m and returns it. It is called from the machine's StopCheck poll
// point (every vm.StopCheckInterval retired instructions) and once more
// after the run ends, always on the run goroutine — the single-writer side
// of the telemetry contract. Readers (heartbeat, /metrics, expvar) never
// touch the tool; they load the atomics.
//
// Cost: a pass over the per-context aggregates plus ~40 atomic stores,
// every 16K instructions — far below the per-instruction instrumentation
// work the poll interval already amortizes. The snapshot lives in the tool
// because Publish's argument escapes; sampling stays allocation-free.
func (t *Tool) sampleInto(m *telemetry.Metrics) telemetry.Snapshot {
	var c CommStats
	for i := range t.comm {
		c.Add(t.comm[i])
	}
	perChunk := t.shadow.bytesPerChunk()
	shLive := uint64(len(t.shadow.chunks))
	shPeak := uint64(t.shadow.peakLive)
	live := t.sub.Live()

	var spans, flightRecorded, flightOverwritten uint64
	if b := t.opts.Trace; b != nil {
		spans = b.Recorder().SpanCount()
		fl := tracing.Flight()
		flightRecorded, flightOverwritten = fl.Recorded(), fl.Overwritten()
	}
	var ws trace.WriterStats
	if t.evStats != nil {
		ws = t.evStats()
	}
	var degraded uint64
	if ws.Degraded {
		degraded = 1
	}

	t.sample = telemetry.Snapshot{
		Instrs:    live.Instrs,
		CallDepth: uint64(live.CallDepth),
		Contexts:  uint64(live.Contexts),
		HeapBytes: live.HeapBytes,
		MemPages:  uint64(live.MemPages),

		InputUniqueBytes:     c.InputUnique,
		InputNonUniqueBytes:  c.InputNonUnique,
		OutputUniqueBytes:    c.OutputUnique,
		OutputNonUniqueBytes: c.OutputNonUnique,
		LocalUniqueBytes:     c.LocalUnique,
		LocalNonUniqueBytes:  c.LocalNonUnique,

		ShadowChunksAllocated: t.shadow.allocated,
		ShadowChunksLive:      shLive,
		ShadowChunksEvicted:   t.shadow.evicted,
		ShadowChunksPeak:      shPeak,
		ShadowBytesResident:   shLive * perChunk,
		ShadowBytesPeak:       shPeak * perChunk,
		ShadowCacheHits:       t.shadow.cacheHits,
		ShadowCacheMisses:     t.shadow.cacheMisses,
		ShadowChunksRecycled:  t.shadow.recycled,

		ClassifySpans:    t.spans,
		ClassifyRuns:     t.runs,
		ClassifyGranules: t.granules,

		EventsEmitted:        t.emitted,
		EventQueueDepth:      uint64(ws.QueueDepth),
		EventEmitStalls:      ws.Stalls,
		EventFrames:          ws.Frames,
		EventBytesCompressed: ws.CompressedBytes,
		EventsDropped:        ws.Dropped,
		EventRetries:         ws.Retries,
		EventSinkDegraded:    degraded,

		CacheAccesses:     live.Cache.Accesses,
		CacheL1Misses:     live.Cache.L1Misses,
		CacheLLMisses:     live.Cache.LLMisses,
		CachePrefetches:   live.Cache.Prefetches,
		Branches:          live.Branches,
		BranchMispredicts: live.Mispredicts,

		TraceSpans:        spans,
		FlightRecorded:    flightRecorded,
		FlightOverwritten: flightOverwritten,
	}
	m.Publish(&t.sample)
	return t.sample
}

// finalSnapshot takes the end-of-run sample and freezes it for the Result.
// m is the run's effective metrics block (the caller's, or the private one
// RunContext attached for a traced run) — when the caller supplied live
// Metrics the final sample lands there too, so /metrics keeps serving the
// finished run's totals. A nil m still yields a populated snapshot.
func finalSnapshot(tool *Tool, m *telemetry.Metrics, opts Options, start time.Time, wall time.Duration) *telemetry.Snapshot {
	if m == nil {
		m = &telemetry.Metrics{}
		m.BeginRun(start, opts.MaxInstrs, opts.MaxWall)
	}
	tool.sampleInto(m)
	snap := m.Snapshot()
	snap.WallNanos = int64(wall)
	return &snap
}
