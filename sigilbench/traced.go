package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"sigil/internal/branchsim"
	"sigil/internal/cachesim"
	"sigil/internal/callgrind"
	"sigil/internal/core"
	"sigil/internal/dbi"
	"sigil/internal/trace"
	"sigil/internal/vm"
)

// The traced run splits its time between three phases: jobs with spans
// around the calls into each layer (alternating with untraced jobs, to
// measure the spans' own cost), the ladder of configurations for the
// layers that work inside the run, and replays of recorded streams into
// the cache and branch simulators and the event encoder.
const (
	spanShare   = 0.4
	ladderShare = 0.45
	minRounds   = 3
)

// traced runs the traced phases and returns the per-layer metrics and the
// sample count behind each phase.
func (b *bench) traced(deadline time.Time) (map[string]float64, map[string]any, error) {
	start := time.Now()
	total := deadline.Sub(start)
	w := b.cfg.w
	m := map[string]float64{}

	// Phase 1: traced and untraced jobs, alternating. The first traced
	// job also captures the event stream for the encoder replay.
	tr := newTracer()
	var captured trace.Buffer
	for i := 0; i < warmupIterations; i++ {
		b.iterate(nil, nil)
	}
	var tracedProfile, plainProfile []time.Duration
	var allocs, gcs, stalls []float64
	var o *output // the last traced job that passed its checks
	spanEnd := start.Add(time.Duration(spanShare * float64(total)))
	for job := 0; job < 2*minRounds || time.Now().Before(spanEnd); job++ {
		if b.ctx.Err() != nil {
			return nil, nil, b.ctx.Err()
		}
		if job%2 == 1 {
			if t, out := b.iterate(nil, nil); out != nil {
				plainProfile = append(plainProfile, t.profile)
			}
			continue
		}
		var tee *trace.Buffer
		if job == 0 && w.events {
			tee = &captured
		}
		tr.startJob(job / 2)
		t, out := b.iterate(tr, tee)
		if out == nil {
			continue
		}
		o = out
		tracedProfile = append(tracedProfile, t.profile)
		allocs = append(allocs, float64(t.alloc)/(1<<20))
		gcs = append(gcs, float64(t.gcs))
		stalls = append(stalls, float64(o.stalls))
	}
	if o == nil {
		return nil, nil, fmt.Errorf("no traced job passed its checks: %v", b.firstErr)
	}
	med := func(name string) float64 { return median(seconds(tr.durations(name))) }
	m["workloads.build_s"] = med("workloads.Build")
	m["core.profile_write_s"] = med("core.WriteProfile")
	m["core.profile_read_s"] = med("core.ReadProfile")
	m["cdfg.partition_s"] = med("cdfg.partition")
	m["reuse.analyze_s"] = med("reuse.analysis")
	m["runtime.alloc_mb_per_job"] = median(allocs)
	m["runtime.gc_cycles_per_job"] = median(gcs)
	m["bench.trace_overhead"] = median(seconds(tracedProfile)) / median(seconds(plainProfile))
	m["core.events"] = float64(o.emitted)
	m["core.shadow_peak_mb"] = float64(o.res.Shadow.PeakBytes) / (1 << 20)
	m["core.chunks_allocated"] = float64(o.res.Shadow.ChunksAllocated)
	m["callgrind.contexts"] = float64(len(o.res.Profile.Nodes))
	m["trace.emit_stalls"] = median(stalls)
	m["trace.decode_ns_per_event"] = 0
	m["critpath.ns_per_event"] = 0
	m["critpath.parallelism"] = 0
	if w.events {
		perEvent := 1e9 / float64(o.emitted)
		m["trace.decode_ns_per_event"] = med("trace.ReadAllWorkers") * perEvent
		m["critpath.ns_per_event"] = med("critpath.Analyze") * perEvent
		m["critpath.parallelism"] = o.crit.Parallelism()
	}
	if err := tr.write(fmt.Sprintf(".bench_build/spans-%s-seed%d.json", w.name, b.cfg.seed)); err != nil {
		return nil, nil, err
	}
	meta := map[string]any{"traced_jobs": len(tracedProfile), "untraced_jobs": len(plainProfile)}
	printSelfTimes(tr)

	// Phase 2: the ladder.
	p, err := w.setup(b.cfg.seed, nil)
	if err != nil {
		return nil, nil, err
	}
	rec := &recorder{}
	if _, err := dbi.RunContext(b.ctx, p.prog, rec, p.input, nil); err != nil {
		return nil, nil, fmt.Errorf("recording run: %w", err)
	}
	ladderEnd := time.Now().Add(time.Duration(ladderShare * float64(total)))
	rungs, rounds, err := b.ladder(p, ladderEnd)
	if err != nil {
		return nil, nil, err
	}
	meta["ladder_rounds"] = rounds
	native, null, cg, base, full := rungs[0], rungs[1], rungs[2], rungs[3], rungs[4]
	accesses := float64(len(rec.addrs))
	prims := float64(rec.primitives)
	m["vm.native_s"] = native
	m["vm.instrs"] = float64(b.native)
	m["vm.ns_per_instr"] = native * 1e9 / float64(b.native)
	m["dbi.dispatch_s"] = null - native
	m["dbi.primitives"] = prims
	m["dbi.ns_per_primitive"] = (null - native) * 1e9 / prims
	m["dbi.callgrind_slowdown"] = cg / native
	m["dbi.sigil_slowdown"] = full / native
	m["callgrind.self_s"] = cg - null
	m["callgrind.ns_per_primitive"] = (cg - null) * 1e9 / prims
	m["core.self_s"] = base - cg
	m["core.self_share"] = (base - cg) / full
	m["core.ns_per_access"] = (base - cg) * 1e9 / accesses
	m["core.reuse_s"] = 0
	m["core.emit_s"] = 0
	if w.reuse {
		m["core.reuse_s"] = full - base
	}
	if w.events {
		m["core.emit_s"] = full - base
	}

	// Phase 3: replays, sharing what is left of the run.
	sub := totalCosts(o.res.Profile)
	left := time.Until(deadline)
	share := func(f float64) time.Time { return time.Now().Add(time.Duration(f * float64(left))) }
	if meta["cache_replays"], err = replayCache(rec, sub, share(0.4), m); err != nil {
		return nil, nil, err
	}
	if meta["branch_replays"], err = replayBranches(rec, sub, share(0.2), m); err != nil {
		return nil, nil, err
	}
	m["trace.encode_ns_per_event"] = 0
	m["trace.bytes_per_event"] = 0
	if w.events {
		if meta["encode_replays"], err = replayEncode(captured.Events, share(0.4), m); err != nil {
			return nil, nil, err
		}
	}
	return m, meta, nil
}

// ladder times the same program and input under each configuration, in
// rounds so drift in the host's speed spreads over every rung, and returns
// each rung's median wall time in seconds — native, null observer,
// Callgrind mode, Sigil baseline, the workload's full configuration — and
// the number of rounds.
func (b *bench) ladder(p prepared, deadline time.Time) ([5]float64, int, error) {
	w := b.cfg.w
	var evbuf bytes.Buffer
	rungs := [5]func() error{
		func() error { _, err := dbi.RunContext(b.ctx, p.prog, nil, p.input, nil); return err },
		func() error { _, err := dbi.RunContext(b.ctx, p.prog, vm.BaseObserver{}, p.input, nil); return err },
		func() error { _, err := callgrindRun(b.ctx, p); return err },
		func() error { _, err := core.RunContext(b.ctx, p.prog, core.Options{}, p.input); return err },
		func() error {
			if !w.events {
				_, err := core.RunContext(b.ctx, p.prog, w.options(nil), p.input)
				return err
			}
			evbuf.Reset()
			wr := trace.NewWriter(&evbuf)
			_, err := core.RunContext(b.ctx, p.prog, w.options(wr), p.input)
			if cerr := wr.Close(); err == nil {
				err = cerr
			}
			return err
		},
	}
	var times [5][]time.Duration
	var out [5]float64
	round := 0
	for ; round < minRounds || time.Now().Before(deadline); round++ {
		for i, run := range rungs {
			if i == 4 && !w.events && !w.reuse {
				continue // the full configuration is the baseline
			}
			runtime.GC()
			start := time.Now()
			if err := run(); err != nil {
				return out, round, fmt.Errorf("ladder rung %d: %w", i, err)
			}
			times[i] = append(times[i], time.Since(start))
		}
	}
	for i := range out {
		out[i] = median(seconds(times[i]))
	}
	if out[4] == 0 {
		out[4] = out[3]
	}
	return out, round, nil
}

// recorder is a counting observer: it counts the primitives the VM
// delivers and records the memory-access and branch streams for replay.
type recorder struct {
	vm.BaseObserver
	primitives uint64
	addrs      []uint64
	sizes      []uint8
	sites      []uint64
	taken      []bool
}

func (r *recorder) FnEnter(int)                                    { r.primitives++ }
func (r *recorder) FnLeave(int)                                    { r.primitives++ }
func (r *recorder) Op(vm.OpClass)                                  { r.primitives++ }
func (r *recorder) Syscall(vm.Sys, uint64, uint64, uint64, uint64) { r.primitives++ }

func (r *recorder) Branch(site uint64, taken bool) {
	r.primitives++
	r.sites = append(r.sites, site)
	r.taken = append(r.taken, taken)
}

func (r *recorder) MemRead(addr uint64, size uint8)  { r.access(addr, size) }
func (r *recorder) MemWrite(addr uint64, size uint8) { r.access(addr, size) }

func (r *recorder) access(addr uint64, size uint8) {
	r.primitives++
	r.addrs = append(r.addrs, addr)
	r.sizes = append(r.sizes, size)
}

// replayCache feeds the recorded address stream to a fresh default
// hierarchy, as Callgrind mode does, and checks that the per-access
// outcomes add up to the substrate's miss counts exactly. It returns the
// number of replays.
func replayCache(rec *recorder, sub callgrind.Costs, deadline time.Time, m map[string]float64) (int, error) {
	var times []time.Duration
	var h *cachesim.Hierarchy
	for rep := 0; rep < minRounds || time.Now().Before(deadline); rep++ {
		h = cachesim.DefaultHierarchy()
		var l1, ll uint64
		start := time.Now()
		for i, a := range rec.addrs {
			switch h.Access(a, rec.sizes[i]) {
			case cachesim.HitLL:
				l1++
			case cachesim.MissAll:
				l1++
				ll++
			}
		}
		times = append(times, time.Since(start))
		if l1 != sub.L1Misses || ll != sub.LLMisses {
			return 0, fmt.Errorf("cache replay missed %d L1 / %d LL, substrate counted %d / %d",
				l1, ll, sub.L1Misses, sub.LLMisses)
		}
	}
	st := h.Stats()
	m["cachesim.ns_per_access"] = median(seconds(times)) * 1e9 / float64(len(rec.addrs))
	m["cachesim.accesses"] = float64(st.Accesses)
	m["cachesim.l1_miss_ratio"] = ratio(st.L1Misses, st.Accesses)
	m["cachesim.ll_miss_ratio"] = ratio(st.LLMisses, st.L1Misses)
	return len(times), nil
}

// replayBranches feeds the recorded branch stream to a fresh default
// predictor and checks it against the substrate's counts. It returns the
// number of replays.
func replayBranches(rec *recorder, sub callgrind.Costs, deadline time.Time, m map[string]float64) (int, error) {
	var times []time.Duration
	var p *branchsim.Predictor
	for rep := 0; rep < minRounds || time.Now().Before(deadline); rep++ {
		p = branchsim.New(0)
		start := time.Now()
		for i, s := range rec.sites {
			p.Record(s, rec.taken[i])
		}
		times = append(times, time.Since(start))
		if p.Branches() != sub.Branches || p.Mispredicts() != sub.Mispredict {
			return 0, fmt.Errorf("branch replay saw %d branches / %d mispredicts, substrate %d / %d",
				p.Branches(), p.Mispredicts(), sub.Branches, sub.Mispredict)
		}
	}
	m["branchsim.ns_per_branch"] = median(seconds(times)) * 1e9 / float64(len(rec.sites))
	m["branchsim.branches"] = float64(p.Branches())
	m["branchsim.mispredict_ratio"] = ratio(p.Mispredicts(), p.Branches())
	return len(times), nil
}

// replayEncode re-emits a captured event stream through a fresh v3 writer
// and returns the number of replays.
func replayEncode(events []trace.Event, deadline time.Time, m map[string]float64) (int, error) {
	if len(events) == 0 {
		return 0, fmt.Errorf("no events were captured for the encoder replay")
	}
	var times []time.Duration
	var size int
	var buf bytes.Buffer
	for rep := 0; rep < minRounds || time.Now().Before(deadline); rep++ {
		buf.Reset()
		runtime.GC()
		start := time.Now()
		wr := trace.NewWriter(&buf)
		for _, e := range events {
			if err := wr.Emit(e); err != nil {
				_ = wr.Close() // the Emit error is the one to report
				return 0, fmt.Errorf("encoder replay: %w", err)
			}
		}
		if err := wr.Close(); err != nil {
			return 0, fmt.Errorf("encoder replay: %w", err)
		}
		times = append(times, time.Since(start))
		size = buf.Len()
	}
	m["trace.encode_ns_per_event"] = median(seconds(times)) * 1e9 / float64(len(events))
	m["trace.bytes_per_event"] = float64(size) / float64(len(events))
	return len(times), nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
