package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"

	"sigil/internal/callgrind"
	"sigil/internal/cdfg"
	"sigil/internal/core"
	"sigil/internal/critpath"
	"sigil/internal/dbi"
	"sigil/internal/reuse"
	"sigil/internal/trace"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// workload is one benchmark workload: a guest program at a fixed input
// class, profiled the way one CLI invocation profiles it. README.md gives
// the reasons for each choice.
type workload struct {
	name    string
	program string
	class   workloads.Class
	// events adds `sigil -events`: a v3 event file written through
	// trace.NewWriter, decoded and analysed by the critical-path tool.
	events bool
	// reuse adds `sigil -reuse`: re-use tracking and the Fig 9–11
	// analysis in the profiling job.
	reuse bool
	// digest pins the simulated statistics for DefaultSeed.
	digest string
}

var workloadTable = []workload{
	{name: "dedup-shadow", program: "dedup", class: workloads.SimSmall,
		digest: "470b66cb82518f5a"},
	{name: "blackscholes-events", program: "blackscholes", class: workloads.SimMedium, events: true,
		digest: "2c64f11f39a3fd7a"},
	{name: "vips-reuse", program: "vips", class: workloads.SimMedium, reuse: true,
		digest: "5b0b6eda5962de37"},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloadTable {
		if workloadTable[i].name == name {
			return &workloadTable[i], nil
		}
	}
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// prepared is a workload's set-up: the verified program and its input.
type prepared struct {
	prog  *vm.Program
	input []byte
}

// setup does what every CLI run does before profiling: build and verify
// the guest program, generate its input and construct the tools.
func (w *workload) setup(seed uint64, tr *tracer) (prepared, error) {
	end := tr.begin("workloads.Build")
	p, spec, err := workloads.Build(w.program, w.class)
	end()
	if err != nil {
		return prepared{}, err
	}
	in, err := seededInput(w.program, spec, seed)
	if err != nil {
		return prepared{}, err
	}
	sub, err := callgrind.New(callgrind.Options{})
	if err != nil {
		return prepared{}, err
	}
	if _, err := core.New(sub, w.options(nil)); err != nil {
		return prepared{}, err
	}
	return prepared{prog: p, input: in}, nil
}

// options is the workload's Sigil configuration; events is the sink for
// the event file, nil when the workload writes none.
func (w *workload) options(events trace.Sink) core.Options {
	return core.Options{TrackReuse: w.reuse, Events: events}
}

// output is everything one job produced, kept for the checks.
type output struct {
	res     *core.Result
	profile []byte // WriteProfile of res
	events  []byte // the encoded v3 event file (events workloads)
	emitted uint64 // Writer.Count() at Close
	stalls  uint64 // Writer.Stats().Stalls at Close

	breakdown reuse.Breakdown

	// Filled by the analysis job.
	trace  *trace.Trace
	crit   *critpath.Analysis
	reread *core.Result
}

// profileJob is the profiling job: one Sigil run of the program in the
// workload's configuration, its profile written into memory and, for
// re-use workloads, the re-use analysis. tee, when non-nil, also receives
// every event (the traced run captures the stream for replay).
func (w *workload) profileJob(ctx context.Context, p prepared, tr *tracer, tee *trace.Buffer) (*output, error) {
	o := &output{}
	var evbuf bytes.Buffer
	var wr *trace.Writer
	var sink trace.Sink
	if w.events {
		wr = trace.NewWriter(&evbuf)
		sink = wr
		if tee != nil {
			sink = teeSink{wr, tee}
		}
	}
	end := tr.begin("core.RunContext")
	res, err := core.RunContext(ctx, p.prog, w.options(sink), p.input)
	end()
	if wr != nil {
		end := tr.begin("trace.Writer.Close")
		cerr := wr.Close()
		end()
		o.emitted, o.stalls, o.events = wr.Count(), wr.Stats().Stalls, evbuf.Bytes()
		err = errors.Join(err, cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("sigil run: %w", err)
	}
	o.res = res

	var pb bytes.Buffer
	end = tr.begin("core.WriteProfile")
	err = core.WriteProfile(&pb, res)
	end()
	if err != nil {
		return nil, fmt.Errorf("writing profile: %w", err)
	}
	o.profile = pb.Bytes()

	if w.reuse {
		end := tr.begin("reuse.analysis")
		err := o.analyzeReuse()
		end()
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// analyzeReuse is the Fig 9–11 analysis `sigil-reuse` runs on a profile.
func (o *output) analyzeReuse() error {
	var err error
	if o.breakdown, err = reuse.Analyze(o.res); err != nil {
		return err
	}
	top, err := reuse.TopFunctions(o.res, 5)
	if err != nil {
		return err
	}
	if len(top) == 0 {
		return errors.New("re-use analysis found no re-using function")
	}
	_, err = reuse.LifetimeHistogram(o.res, top[0].Name)
	return err
}

// analysisJob is the post-processing a user runs on the job's files:
// `sigil-critpath` on the event file (events workloads) and `sigil-part`
// on the profile.
func (w *workload) analysisJob(o *output, tr *tracer) error {
	if w.events {
		end := tr.begin("trace.ReadAllWorkers")
		t, err := trace.ReadAllWorkers(bytes.NewReader(o.events), runtime.GOMAXPROCS(0))
		end()
		if err != nil {
			return fmt.Errorf("decoding events: %w", err)
		}
		o.trace = t
		end = tr.begin("critpath.Analyze")
		o.crit, err = critpath.Analyze(t)
		end()
		if err != nil {
			return fmt.Errorf("critical path: %w", err)
		}
	}
	end := tr.begin("core.ReadProfile")
	r, err := core.ReadProfile(bytes.NewReader(o.profile))
	end()
	if err != nil {
		return fmt.Errorf("reading profile: %w", err)
	}
	o.reread = r
	end = tr.begin("cdfg.partition")
	defer end()
	g, err := cdfg.Build(r, cdfg.Config{})
	if err != nil {
		return fmt.Errorf("partitioning: %w", err)
	}
	g.Trim().TopByBreakeven(5)
	return nil
}

// callgrindRun is a Callgrind-mode run of the same program: the substrate
// alone, the paper's middle bar.
func callgrindRun(ctx context.Context, p prepared) (*callgrind.Profile, error) {
	sub, err := callgrind.New(callgrind.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := dbi.RunContext(ctx, p.prog, sub, p.input, nil); err != nil {
		return nil, err
	}
	return sub.Profile(), nil
}

// teeSink forwards every event to two sinks.
type teeSink struct {
	a trace.Sink
	b *trace.Buffer
}

func (t teeSink) Emit(e trace.Event) error {
	if err := t.a.Emit(e); err != nil {
		return err
	}
	return t.b.Emit(e)
}
