package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"sigil/internal/dbi"
	"sigil/internal/trace"
)

// warmupIterations are run and checked before measuring, and their timings
// discarded, so the chunk, slab and flate pools are filled.
const warmupIterations = 2

// config is one benchmark invocation.
type config struct {
	w        *workload
	seed     uint64
	duration time.Duration
	// corrupt, when set, damages each job's outputs between the profiling
	// job and the analysis job. Tests use it to show that a wrong output
	// counts as a failed job.
	corrupt func(*output)
}

// bench is the closed loop of one run: a single client that starts the
// next iteration only when the previous one has been checked.
type bench struct {
	cfg    config
	ctx    context.Context
	native uint64 // retired instructions of a native run of the input
	want   string // expected digest: pinned for DefaultSeed, else the first job's

	attempted, failed int
	firstErr          error

	setup, profile, analyze, callgrind []time.Duration
	instrs                             uint64
	profileTotal                       time.Duration
}

func newBench(ctx context.Context, cfg config) (*bench, error) {
	b := &bench{cfg: cfg, ctx: ctx}
	if cfg.seed == DefaultSeed {
		b.want = cfg.w.digest
	}
	p, err := cfg.w.setup(cfg.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	nat, err := dbi.RunContext(ctx, p.prog, nil, p.input, nil)
	if err != nil {
		return nil, fmt.Errorf("native run: %w", err)
	}
	b.native = nat.Stats.Instrs
	return b, nil
}

// iterTimes are the timed parts of one iteration.
type iterTimes struct {
	setup, profile, analyze, callgrind time.Duration
	// Heap bytes allocated and GC cycles during the profiling job,
	// read only in the traced run (ReadMemStats stops the world).
	alloc, gcs uint64
}

// iterate runs one iteration — set-up, profiling job, analysis job and a
// Callgrind-mode run of the same program — and checks every output. A job
// that errors or fails a check counts as failed and yields no timings.
// tr, when non-nil, records spans; tee captures the event stream. The
// outputs are returned only when every check passed.
func (b *bench) iterate(tr *tracer, tee *trace.Buffer) (iterTimes, *output) {
	b.attempted++
	t, o, err := b.runIteration(tr, tee)
	if err == nil {
		err = b.check(o, tr)
	}
	if err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
		return iterTimes{}, nil
	}
	return t, o
}

func (b *bench) runIteration(tr *tracer, tee *trace.Buffer) (iterTimes, *output, error) {
	var t iterTimes
	w := b.cfg.w
	defer tr.begin("job")()

	runtime.GC()
	start := time.Now()
	p, err := w.setup(b.cfg.seed, tr)
	t.setup = time.Since(start)
	if err != nil {
		return t, nil, fmt.Errorf("set-up: %w", err)
	}

	var before runtime.MemStats
	runtime.GC()
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	end := tr.begin("profile")
	start = time.Now()
	o, err := w.profileJob(b.ctx, p, tr, tee)
	t.profile = time.Since(start)
	end()
	if err != nil {
		return t, nil, fmt.Errorf("profiling job: %w", err)
	}
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		t.alloc = after.TotalAlloc - before.TotalAlloc
		t.gcs = uint64(after.NumGC - before.NumGC)
	}
	if b.cfg.corrupt != nil {
		b.cfg.corrupt(o)
	}

	runtime.GC()
	end = tr.begin("analyze")
	start = time.Now()
	err = w.analysisJob(o, tr)
	t.analyze = time.Since(start)
	end()
	if err != nil {
		return t, nil, fmt.Errorf("analysis job: %w", err)
	}

	runtime.GC()
	end = tr.begin("callgrind.run")
	start = time.Now()
	cg, err := callgrindRun(b.ctx, p)
	t.callgrind = time.Since(start)
	end()
	if err != nil {
		return t, nil, fmt.Errorf("Callgrind-mode run: %w", err)
	}
	if err := checkAgreement(o, b.native, cg); err != nil {
		return t, nil, err
	}
	return t, o, nil
}

// check applies the single-run checks and the digest comparison.
func (b *bench) check(o *output, tr *tracer) error {
	defer tr.begin("checks")()
	if err := b.cfg.w.checkOutput(o); err != nil {
		return err
	}
	d := digest(o)
	if b.want == "" {
		b.want = d
	}
	if d != b.want {
		return fmt.Errorf("simulated-statistics digest %s, want %s", d, b.want)
	}
	return nil
}

// record keeps an iteration's timings.
func (b *bench) record(t iterTimes) {
	b.setup = append(b.setup, t.setup)
	b.profile = append(b.profile, t.profile)
	b.analyze = append(b.analyze, t.analyze)
	b.callgrind = append(b.callgrind, t.callgrind)
	b.instrs += b.native
	b.profileTotal += t.profile
}

// measure runs the warm-up and then iterations until the deadline; every
// passing measured iteration is recorded.
func (b *bench) measure(deadline time.Time) {
	for i := 0; i < warmupIterations; i++ {
		b.iterate(nil, nil)
	}
	for first := true; first || time.Now().Before(deadline); first = false {
		if b.ctx.Err() != nil {
			return
		}
		if t, o := b.iterate(nil, nil); o != nil {
			b.record(t)
		}
	}
}

// endToEnd computes the end-to-end metrics from the recorded iterations.
func (b *bench) endToEnd() (map[string]float64, map[string]any) {
	prof := seconds(b.profile)
	tailV, tailPct, tailOK := tail(prof)
	m := map[string]float64{
		"setup_s":         median(seconds(b.setup)),
		"profile_p50_s":   median(prof),
		"profile_tail_s":  tailV,
		"guest_mips":      0,
		"callgrind_p50_s": median(seconds(b.callgrind)),
		"analyze_p50_s":   median(seconds(b.analyze)),
		"peak_rss_mb":     peakRSSMB(),
		"success_rate":    float64(b.attempted-b.failed) / float64(b.attempted),
	}
	if b.profileTotal > 0 {
		m["guest_mips"] = float64(b.instrs) / b.profileTotal.Seconds() / 1e6
	}
	meta := map[string]any{
		"samples":              len(b.profile),
		"tail_percentile":      tailPct,
		"tail_has_10_beyond":   tailOK,
		"guest_instrs_per_job": b.native,
	}
	return m, meta
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
