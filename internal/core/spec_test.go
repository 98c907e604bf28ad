package core

import (
	"reflect"
	"slices"
	"testing"

	"sigil/internal/callgrind"
	"sigil/internal/dbi"
	"sigil/internal/trace"
	"sigil/internal/vm"
)

// specTool is an executable specification of the paper's Table I semantics,
// written to be obviously right rather than fast: one map entry per granule,
// one granule at a time. It shares no code with the classifier it checks —
// no shadow table, no context encoding, no run batching, no aggregate or
// histogram helpers — and uses the package's exported result types only as
// data. The differential tests run it beside the real Tool through refPair
// and demand identical Results and event streams; the Table I tests at the
// bottom of this file pin the spec itself to hand-computed numbers.
//
// The semantics it specifies:
//
//   - Every granule (a byte, or a line in line mode) remembers its last
//     writer and the writer's call, and its last reader and the reader's
//     call. Memory nobody wrote reads as produced by program startup.
//   - A read by context c of a granule written by p is local when p == c,
//     otherwise input to c and output of p (or startup/kernel bytes). It is
//     non-unique when c was also the granule's last reader, unique
//     otherwise. Startup and kernel output count unique bytes only.
//   - A syscall's input range is read by the calling context, then leaves
//     the program on a unique edge to the kernel; its output range is
//     written by the kernel.
//   - Re-use mode: an episode is the run of reads of one granule by one
//     call. Its re-use count is the reads after the first, its lifetime
//     the time from first to last read.
//   - Line mode: every read and write of a line counts; a line's re-use
//     count is its accesses minus one.
//   - Shadow memory is organized in chunks of specChunkGranules granules,
//     created on first touch and, under MaxShadowChunks, evicted oldest
//     first. Eviction closes the chunk's open episodes and line counts and
//     forgets its state, so evicted bytes read as startup again.
//   - Events: a call's execution is cut into segments at every call
//     boundary. A segment reports the unique cross-context bytes it read
//     per producer call, in first-encounter order, then its operation count.
type specTool struct {
	sub  *callgrind.Tool
	mach *vm.Machine

	shift      uint // log2 of the granule size
	lineSize   int
	lineMode   bool
	trackReuse bool
	maxChunks  int
	events     bool

	chunks map[uint64]map[uint64]*specCell // live chunk → granule → state
	order  []uint64                        // live chunk keys, oldest first

	allocated, evicted, peakLive uint64

	stack   []specFrame
	defined map[int]bool
	emitted []trace.Event

	maxCtx     int // highest context entered, -1 before the first
	comm       map[int32]*CommStats
	edges      map[[2]int32]*Edge
	startupOut uint64
	kernelOut  uint64
	kernelIn   uint64
	episodes   map[int32]*specTally // by reader
	lineTally  [5]uint64
	lines      uint64
}

// specChunkGranules is the chunk size the shadow memory is organized in;
// it decides which granules one MaxShadowChunks eviction forgets.
const specChunkGranules = 1 << 14

// Shadow-object sizes from Table I, for the memory accounting: the baseline
// object holds four 32-bit fields (writer, writer call, reader, reader
// call), the re-use extension a 32-bit count (padded to 8) and the first
// and last access times.
const (
	specObjBytes   = 4 * 4
	specReuseBytes = 8 + 8 + 8
)

// specLifetimeBin is the lifetime histogram bin width of the paper's
// Figures 10 and 11, in retired instructions.
const specLifetimeBin = 1000

type specCell struct {
	writer     int32
	writerCall uint64
	read       bool
	reader     int32
	readerCall uint64
	count      uint64 // reads in the open episode after the first; accesses in line mode
	first      uint64
	last       uint64
}

type specFrame struct {
	ctx     int32
	call    uint64
	opStart uint64
	comm    []specComm
}

type specComm struct {
	src     int32
	srcCall uint64
	bytes   uint64
}

// specTally accumulates one reader's closed episodes.
type specTally struct {
	episodes, zero, low, high, reused, sumCount, sumLife uint64
	hist                                                 map[uint64]uint64
}

func newSpecTool(sub *callgrind.Tool, opts Options) *specTool {
	s := &specTool{
		sub:        sub,
		lineSize:   opts.LineSize,
		lineMode:   opts.LineGranularity,
		trackReuse: opts.TrackReuse,
		maxChunks:  opts.MaxShadowChunks,
		events:     opts.Events != nil,
		chunks:     map[uint64]map[uint64]*specCell{},
		defined:    map[int]bool{},
		maxCtx:     -1,
		comm:       map[int32]*CommStats{},
		edges:      map[[2]int32]*Edge{},
		episodes:   map[int32]*specTally{},
	}
	if s.lineSize == 0 {
		s.lineSize = 64
	}
	if s.lineMode {
		for 1<<s.shift < s.lineSize {
			s.shift++
		}
	}
	return s
}

// refPair drives real, which drives the substrate, and then the spec, so
// the spec reads contexts, call numbers and time the substrate has already
// updated for the same primitive. real is the production Tool, or the bare
// substrate when the spec runs alone.
type refPair struct {
	real vm.Observer
	spec *specTool
}

func (p refPair) ProgramStart(prog *vm.Program, m *vm.Machine) {
	p.real.ProgramStart(prog, m)
	p.spec.ProgramStart(prog, m)
}
func (p refPair) FnEnter(fn int)             { p.real.FnEnter(fn); p.spec.FnEnter(fn) }
func (p refPair) FnLeave(fn int)             { p.real.FnLeave(fn); p.spec.FnLeave(fn) }
func (p refPair) Branch(site uint64, t bool) { p.real.Branch(site, t) }
func (p refPair) MemRead(a uint64, s uint8)  { p.real.MemRead(a, s); p.spec.MemRead(a, s) }
func (p refPair) MemWrite(a uint64, s uint8) {
	p.real.MemWrite(a, s)
	p.spec.MemWrite(a, s)
}
func (p refPair) Syscall(sys vm.Sys, inAddr, inLen, outAddr, outLen uint64) {
	p.real.Syscall(sys, inAddr, inLen, outAddr, outLen)
	p.spec.Syscall(sys, inAddr, inLen, outAddr, outLen)
}
func (p refPair) ProgramEnd() { p.real.ProgramEnd(); p.spec.ProgramEnd() }

// --- shadow memory ---

// chunk returns the live state map of chunk key, creating it (and evicting
// the oldest chunk when the limit is reached) on first touch.
func (s *specTool) chunk(key uint64) map[uint64]*specCell {
	if m, ok := s.chunks[key]; ok {
		return m
	}
	if s.maxChunks > 0 && len(s.chunks) >= s.maxChunks {
		s.evict(s.order[0])
	}
	m := map[uint64]*specCell{}
	s.chunks[key] = m
	s.order = append(s.order, key)
	s.allocated++
	s.peakLive = max(s.peakLive, uint64(len(s.chunks)))
	return m
}

func (s *specTool) cell(g uint64) *specCell {
	m := s.chunk(g / specChunkGranules)
	c := m[g]
	if c == nil {
		c = &specCell{writer: trace.CtxStartup}
		m[g] = c
	}
	return c
}

func (s *specTool) evict(key uint64) {
	s.closeChunk(s.chunks[key])
	delete(s.chunks, key)
	s.order = slices.DeleteFunc(s.order, func(k uint64) bool { return k == key })
	s.evicted++
}

// closeChunk closes the open episodes (re-use mode) or line counts (line
// mode) of one chunk's granules.
func (s *specTool) closeChunk(m map[uint64]*specCell) {
	for _, c := range m {
		switch {
		case s.lineMode && c.count > 0:
			s.closeLine(c.count - 1)
		case s.trackReuse && !s.lineMode && c.read:
			s.closeEpisode(c.reader, c.count, c.last-c.first)
		}
	}
}

func (s *specTool) closeEpisode(reader int32, count, lifetime uint64) {
	t := s.episodes[reader]
	if t == nil {
		t = &specTally{hist: map[uint64]uint64{}}
		s.episodes[reader] = t
	}
	t.episodes++
	t.sumCount += count
	switch {
	case count == 0:
		t.zero++
		return
	case count < 10:
		t.low++
	default:
		t.high++
	}
	t.reused++
	t.sumLife += lifetime
	t.hist[lifetime/specLifetimeBin]++
}

// closeLine files one line under the Figure 12 re-use buckets.
func (s *specTool) closeLine(reuses uint64) {
	s.lines++
	bucket := 0
	for _, limit := range []uint64{10, 100, 1000, 10000} {
		if reuses < limit {
			break
		}
		bucket++
	}
	s.lineTally[bucket]++
}

// --- classification ---

func (s *specTool) commOf(ctx int32) *CommStats {
	c := s.comm[ctx]
	if c == nil {
		c = &CommStats{}
		s.comm[ctx] = c
	}
	return c
}

func (s *specTool) edge(src, dst int32) *Edge {
	k := [2]int32{src, dst}
	e := s.edges[k]
	if e == nil {
		e = &Edge{Src: src, Dst: dst}
		s.edges[k] = e
	}
	return e
}

func (s *specTool) read(f *specFrame, g, now uint64) {
	c := s.cell(g)
	unique := !(c.read && c.reader == f.ctx)
	producer := c.writer
	if producer == f.ctx {
		if unique {
			s.commOf(f.ctx).LocalUnique++
		} else {
			s.commOf(f.ctx).LocalNonUnique++
		}
	} else {
		in, e := s.commOf(f.ctx), s.edge(producer, f.ctx)
		if unique {
			in.InputUnique++
			e.Unique++
		} else {
			in.InputNonUnique++
			e.NonUnique++
		}
		switch {
		case producer >= 0 && unique:
			s.commOf(producer).OutputUnique++
		case producer >= 0:
			s.commOf(producer).OutputNonUnique++
		case producer == trace.CtxStartup && unique:
			s.startupOut++
		case producer == trace.CtxKernel && unique:
			s.kernelOut++
		}
		if unique && s.events {
			f.addComm(producer, c.writerCall)
		}
	}

	switch {
	case s.lineMode:
		c.count++
	case s.trackReuse && c.read && c.reader == f.ctx && c.readerCall == f.call:
		c.count++
		c.last = now
	case s.trackReuse:
		if c.read {
			s.closeEpisode(c.reader, c.count, c.last-c.first)
		}
		c.count, c.first, c.last = 0, now, now
	}
	c.read, c.reader, c.readerCall = true, f.ctx, f.call
}

func (s *specTool) write(ctx int32, call, g uint64) {
	c := s.cell(g)
	c.writer, c.writerCall = ctx, call
	if s.lineMode {
		c.count++
	}
}

// addComm adds one byte the open segment read from producer call
// (src, srcCall).
func (f *specFrame) addComm(src int32, srcCall uint64) {
	for i := range f.comm {
		if f.comm[i].src == src && f.comm[i].srcCall == srcCall {
			f.comm[i].bytes++
			return
		}
	}
	f.comm = append(f.comm, specComm{src: src, srcCall: srcCall, bytes: 1})
}

func (s *specTool) granules(addr, n uint64) (uint64, uint64) {
	return addr >> s.shift, (addr + n - 1) >> s.shift
}

func (s *specTool) top() *specFrame {
	if len(s.stack) == 0 {
		return nil
	}
	return &s.stack[len(s.stack)-1]
}

// --- observer ---

// ProgramStart touches the chunks of the initialized data segments. Their
// bytes read as produced by startup, which is also what unwritten memory
// reads as, so no granule state is needed.
func (s *specTool) ProgramStart(p *vm.Program, m *vm.Machine) {
	s.mach = m
	for _, seg := range p.Segments {
		if len(seg.Data) == 0 {
			continue
		}
		g0, g1 := s.granules(seg.Addr, uint64(len(seg.Data)))
		for key := g0 / specChunkGranules; key <= g1/specChunkGranules; key++ {
			s.chunk(key)
		}
	}
}

func (s *specTool) MemRead(addr uint64, size uint8) {
	f := s.top()
	if f == nil {
		return
	}
	now := s.sub.Now()
	g0, g1 := s.granules(addr, uint64(size))
	for g := g0; g <= g1; g++ {
		s.read(f, g, now)
	}
}

func (s *specTool) MemWrite(addr uint64, size uint8) {
	f := s.top()
	if f == nil {
		return
	}
	g0, g1 := s.granules(addr, uint64(size))
	for g := g0; g <= g1; g++ {
		s.write(f.ctx, f.call, g)
	}
}

func (s *specTool) Syscall(sys vm.Sys, inAddr, inLen, outAddr, outLen uint64) {
	now := s.sub.Now()
	f := s.top()
	if inLen > 0 && f != nil {
		g0, g1 := s.granules(inAddr, inLen)
		for g := g0; g <= g1; g++ {
			s.read(f, g, now)
		}
		units := g1 - g0 + 1
		s.commOf(f.ctx).OutputUnique += units
		s.edge(f.ctx, trace.CtxKernel).Unique += units
		s.kernelIn += units
	}
	if outLen > 0 {
		g0, g1 := s.granules(outAddr, outLen)
		for g := g0; g <= g1; g++ {
			s.write(trace.CtxKernel, 0, g)
		}
	}
	if s.events && f != nil {
		s.emit(trace.Event{Kind: trace.KindSys, Ctx: f.ctx, Call: f.call,
			Bytes: inLen, Ops: outLen, Time: now, Name: sys.Name()})
	}
}

func (s *specTool) FnEnter(fn int) {
	node := s.sub.Current()
	if node == nil {
		return
	}
	s.maxCtx = max(s.maxCtx, node.ID)
	f := specFrame{ctx: int32(node.ID), call: s.sub.CurrentCall()}
	if s.events {
		if caller := s.top(); caller != nil {
			s.closeSegment(caller)
		}
		s.define(node)
		s.emit(trace.Event{Kind: trace.KindEnter, Ctx: f.ctx, Call: f.call, Time: s.sub.Now()})
		f.opStart = s.ops()
	}
	s.stack = append(s.stack, f)
}

func (s *specTool) FnLeave(fn int) {
	if f := s.top(); f != nil {
		s.leave(f)
	}
}

func (s *specTool) leave(f *specFrame) {
	if s.events {
		s.closeSegment(f)
		s.emit(trace.Event{Kind: trace.KindLeave, Ctx: f.ctx, Call: f.call, Time: s.sub.Now()})
	}
	s.stack = s.stack[:len(s.stack)-1]
	if caller := s.top(); caller != nil && s.events {
		caller.opStart = s.ops()
	}
}

// ProgramEnd leaves every open call, then closes every live chunk.
func (s *specTool) ProgramEnd() {
	for f := s.top(); f != nil; f = s.top() {
		s.leave(f)
	}
	for _, m := range s.chunks {
		s.closeChunk(m)
	}
}

// --- events ---

func (s *specTool) ops() uint64 {
	intOps, fpOps := s.mach.OpCounts()
	return intOps + fpOps
}

func (s *specTool) emit(e trace.Event) { s.emitted = append(s.emitted, e) }

// define emits a context's definition, its ancestors' first.
func (s *specTool) define(n *callgrind.Node) {
	if s.defined[n.ID] {
		return
	}
	parent := int32(-1)
	if n.Parent != nil {
		s.define(n.Parent)
		parent = int32(n.Parent.ID)
	}
	s.defined[n.ID] = true
	s.emit(trace.Event{Kind: trace.KindDefCtx, Ctx: int32(n.ID), SrcCtx: parent, Name: n.Name})
}

// closeSegment reports the frame's open segment, unless it is empty, and
// starts the next one.
func (s *specTool) closeSegment(f *specFrame) {
	ops := s.ops() - f.opStart
	if ops == 0 && len(f.comm) == 0 {
		return
	}
	now := s.sub.Now()
	for _, c := range f.comm {
		s.emit(trace.Event{Kind: trace.KindComm, Ctx: f.ctx, Call: f.call,
			SrcCtx: c.src, SrcCall: c.srcCall, Bytes: c.bytes, Time: now})
	}
	s.emit(trace.Event{Kind: trace.KindOps, Ctx: f.ctx, Call: f.call, Ops: ops, Time: now})
	f.opStart += ops
	f.comm = nil
}

// --- result ---

// result assembles what the spec observed as a Result over the substrate's
// profile, in the shape the Tool reports it. KernelReuse stays zero: the
// kernel never reads through the shadow memory, because a syscall's input
// is read by the calling context.
func (s *specTool) result() *Result {
	r := &Result{
		Profile:        s.sub.Profile(),
		Edges:          make([]Edge, 0, len(s.edges)),
		StartupBytes:   s.startupOut,
		KernelOutBytes: s.kernelOut,
		KernelInBytes:  s.kernelIn,
	}
	if s.maxCtx >= 0 {
		r.Comm = make([]CommStats, s.maxCtx+1)
		for ctx, c := range s.comm {
			r.Comm[ctx] = *c
		}
		if s.trackReuse {
			r.Reuse = make([]ReuseStats, s.maxCtx+1)
			for ctx := range r.Reuse {
				r.Reuse[ctx] = s.reuseOf(int32(ctx))
			}
		}
	}
	for _, e := range s.edges {
		r.Edges = append(r.Edges, *e)
	}
	slices.SortFunc(r.Edges, func(a, b Edge) int {
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		return int(a.Dst) - int(b.Dst)
	})
	if s.lineMode {
		r.Lines = &LineReport{LineSize: s.lineSize, TotalLines: s.lines, Buckets: s.lineTally}
	}
	perGranule := uint64(specObjBytes)
	if s.trackReuse || s.lineMode {
		perGranule += specReuseBytes
	}
	perChunk := specChunkGranules * perGranule
	r.Shadow = ShadowStats{
		ChunksAllocated: s.allocated,
		ChunksLive:      uint64(len(s.chunks)),
		ChunksEvicted:   s.evicted,
		PeakLiveChunks:  s.peakLive,
		BytesPerChunk:   perChunk,
		PeakBytes:       s.peakLive * perChunk,
		GranuleBytes:    uint64(1) << s.shift,
	}
	return r
}

// reuseOf renders one reader's tally; the histogram runs to the highest
// occupied bin and is nil when no episode was re-used.
func (s *specTool) reuseOf(reader int32) ReuseStats {
	t := s.episodes[reader]
	if t == nil {
		return ReuseStats{}
	}
	r := ReuseStats{
		Episodes: t.episodes, ZeroReuse: t.zero, Low: t.low, High: t.high,
		ReusedBytes: t.reused, SumReuseCount: t.sumCount, SumLifetime: t.sumLife,
	}
	for bin, n := range t.hist {
		for uint64(len(r.LifetimeHist)) <= bin {
			r.LifetimeHist = append(r.LifetimeHist, 0)
		}
		r.LifetimeHist[bin] = n
	}
	return r
}

// runSpec runs the spec alone over prog: the substrate resolves contexts
// and no production code classifies anything.
func runSpec(t *testing.T, prog *vm.Program, opts Options, input []byte) (*Result, []trace.Event) {
	t.Helper()
	sub := newSubstrate()
	spec := newSpecTool(sub, opts)
	if _, err := dbi.Run(prog, refPair{sub, spec}, input); err != nil {
		t.Fatal(err)
	}
	return spec.result(), spec.emitted
}

// --- Table I, by hand ---
//
// The tests below pin the spec to the paper, not to production: each runs a
// tiny program through the spec alone and checks numbers worked out by hand
// from the semantics above. Context IDs follow first entry (main is 0) and
// call numbers count every entry from 1.

// assertSpec compares the spec's comm aggregates, edges and external totals
// with hand-computed values.
func assertSpec(t *testing.T, r *Result, comm []CommStats, edges []Edge, startup, kernelOut, kernelIn uint64) {
	t.Helper()
	if !reflect.DeepEqual(r.Comm, comm) {
		t.Errorf("comm:\n got %+v\nwant %+v", r.Comm, comm)
	}
	if !reflect.DeepEqual(r.Edges, edges) {
		t.Errorf("edges:\n got %+v\nwant %+v", r.Edges, edges)
	}
	if r.StartupBytes != startup || r.KernelOutBytes != kernelOut || r.KernelInBytes != kernelIn {
		t.Errorf("startup/kernel-out/kernel-in = %d/%d/%d, want %d/%d/%d",
			r.StartupBytes, r.KernelOutBytes, r.KernelInBytes, startup, kernelOut, kernelIn)
	}
}

// TestSpecProducerConsumer: producer writes 8 bytes, consumer reads them
// twice in one call. The first read is unique, the repeat non-unique, on
// both the consumer's input and the producer's output; the consumer's
// segment reports the 8 unique bytes against the producer's call.
func TestSpecProducerConsumer(t *testing.T) {
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 8)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Call("producer")
	main.Call("consumer")
	main.Halt()
	p := b.Func("producer")
	p.Movi(vm.R2, 7)
	p.Store(vm.R1, 0, vm.R2, 8)
	p.Ret()
	c := b.Func("consumer")
	c.Load(vm.R3, vm.R1, 0, 8)
	c.Load(vm.R4, vm.R1, 0, 8)
	c.Ret()

	r, events := runSpec(t, mustBuild(b), Options{Events: &trace.Buffer{}}, nil)
	assertSpec(t, r,
		[]CommStats{
			{},
			{OutputUnique: 8, OutputNonUnique: 8},
			{InputUnique: 8, InputNonUnique: 8},
		},
		[]Edge{{Src: 1, Dst: 2, Unique: 8, NonUnique: 8}},
		0, 0, 0)

	var comm []trace.Event
	for _, e := range events {
		if e.Kind == trace.KindComm {
			e.Time = 0
			comm = append(comm, e)
		}
	}
	want := []trace.Event{{Kind: trace.KindComm, Ctx: 2, Call: 3, SrcCtx: 1, SrcCall: 2, Bytes: 8}}
	if !reflect.DeepEqual(comm, want) {
		t.Errorf("comm events:\n got %+v\nwant %+v", comm, want)
	}
}

// TestSpecLocalReread: main writes 8 bytes and reads them twice (local,
// unique then non-unique); helper reads them once (input); main's next
// read is unique again because helper became the last reader. In line mode
// the same program touches one line five times: one write, four reads.
func TestSpecLocalReread(t *testing.T) {
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 8)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 7)
	main.Store(vm.R1, 0, vm.R2, 8)
	main.Load(vm.R3, vm.R1, 0, 8)
	main.Load(vm.R3, vm.R1, 0, 8)
	main.Call("helper")
	main.Load(vm.R3, vm.R1, 0, 8)
	main.Halt()
	h := b.Func("helper")
	h.Load(vm.R4, vm.R1, 0, 8)
	h.Ret()
	prog := mustBuild(b)

	r, _ := runSpec(t, prog, Options{}, nil)
	assertSpec(t, r,
		[]CommStats{
			{LocalUnique: 16, LocalNonUnique: 8, OutputUnique: 8},
			{InputUnique: 8},
		},
		[]Edge{{Src: 0, Dst: 1, Unique: 8}},
		0, 0, 0)

	r, _ = runSpec(t, prog, Options{LineGranularity: true}, nil)
	assertSpec(t, r,
		[]CommStats{
			{LocalUnique: 2, LocalNonUnique: 1, OutputUnique: 1},
			{InputUnique: 1},
		},
		[]Edge{{Src: 0, Dst: 1, Unique: 1}},
		0, 0, 0)
	want := &LineReport{LineSize: 64, TotalLines: 1, Buckets: [5]uint64{1, 0, 0, 0, 0}}
	if !reflect.DeepEqual(r.Lines, want) {
		t.Errorf("lines = %+v, want %+v", r.Lines, want)
	}
}

// TestSpecKernelRoundTrip: SysRead makes the kernel the producer of 8
// bytes; main reads them twice (unique, then non-unique) and hands them
// back through SysWrite. The syscall's input read is main's third read of
// the bytes, so non-unique; the bytes then leave on a unique main→kernel
// edge. Kernel output counts unique bytes only.
func TestSpecKernelRoundTrip(t *testing.T) {
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 8)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 8)
	main.Sys(vm.SysRead)
	main.Load(vm.R3, vm.R1, 0, 8)
	main.Load(vm.R3, vm.R1, 0, 8)
	main.Movi(vm.R2, 8)
	main.Sys(vm.SysWrite)
	main.Halt()

	r, _ := runSpec(t, mustBuild(b), Options{}, []byte("12345678"))
	assertSpec(t, r,
		[]CommStats{{InputUnique: 8, InputNonUnique: 16, OutputUnique: 8}},
		[]Edge{
			{Src: trace.CtxKernel, Dst: 0, Unique: 8, NonUnique: 16},
			{Src: 0, Dst: trace.CtxKernel, Unique: 8},
		},
		0, 8, 8)
}

// TestSpecEpisodeSplitsAcrossCalls: two calls of twice each read one byte,
// wait two instructions and read it again. Uniqueness follows the reading
// function, so only the very first read is unique; episodes follow the
// call, so there are two, each with re-use count 1 and lifetime 3.
func TestSpecEpisodeSplitsAcrossCalls(t *testing.T) {
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 8)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 1)
	main.Store(vm.R1, 0, vm.R2, 1)
	main.Call("twice")
	main.Call("twice")
	main.Halt()
	tw := b.Func("twice")
	tw.Load(vm.R3, vm.R1, 0, 1)
	tw.Movi(vm.R4, 0)
	tw.Movi(vm.R5, 0)
	tw.Load(vm.R3, vm.R1, 0, 1)
	tw.Ret()

	r, _ := runSpec(t, mustBuild(b), Options{TrackReuse: true}, nil)
	assertSpec(t, r,
		[]CommStats{
			{OutputUnique: 1, OutputNonUnique: 3},
			{InputUnique: 1, InputNonUnique: 3},
		},
		[]Edge{{Src: 0, Dst: 1, Unique: 1, NonUnique: 3}},
		0, 0, 0)
	want := []ReuseStats{
		{},
		{Episodes: 2, Low: 2, ReusedBytes: 2, SumReuseCount: 2, SumLifetime: 6, LifetimeHist: []uint64{2}},
	}
	if !reflect.DeepEqual(r.Reuse, want) {
		t.Errorf("reuse:\n got %+v\nwant %+v", r.Reuse, want)
	}
}
