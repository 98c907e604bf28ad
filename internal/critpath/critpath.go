// Package critpath post-processes Sigil event files into dependency chains
// and extracts the critical path, following §II-C2 of the paper: each node
// is one computation segment of a function call; edges are the sequential
// order within a call, the call edge from the caller's preceding segment,
// and the data-transfer edges between calls. Calls are modelled as
// non-blocking — a return adds no callee→caller edge, only data does — so
// the longest chain bounds the workload's function-level parallelism.
package critpath

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"sigil/internal/trace"
)

// none marks an absent node or call in the index-based chain state.
const none = -1

// node is one computation segment (a box of the paper's Figure 3). The
// inclusive cost is the self-cost plus the maximum inclusive cost over
// predecessors — the longest dependent chain from the program's start.
type node struct {
	ctx  int32
	pred int32 // predecessor on the longest incoming chain, or none
	self uint64
	incl uint64
}

// callState tracks the chain bookkeeping for one function call. Its node
// fields index the chain builder's node slice.
type callState struct {
	callNum uint64
	ctx     int32
	// last is the node this call's next segment follows: its most recent
	// closed segment or, before the first closes, the caller's segment at
	// the time of the call (the call edge). Data consumers of this call's
	// output depend on it too.
	last int32
	// open is the in-construction segment (created lazily by the first
	// comm/ops after the previous segment closed).
	open int32
	// maxPred accumulates the best predecessor for the open segment.
	maxPred int32
	// shadowed is set once a later Enter re-uses callNum; events naming
	// that number belong to the later call from then on.
	shadowed bool
}

// denseSlack is how far past twice the number of calls entered a call
// number may lie and still get a slot in callTable's dense index.
const denseSlack = 1024

// callTable is the call bookkeeping both chain builders share: every
// entered call's state in one slice, the open calls as a stack of indices
// into it, and an index from call number to the latest call entered with
// that number. The profiler numbers calls densely, so the index is a slice
// of states positions; a number far beyond the calls seen so far (salvage
// gaps, a corrupt stream) goes to a map instead, so no allocation grows
// with the value of a call number.
type callTable struct {
	states []callState
	stack  []int32
	dense  []int32 // dense[n] = position+1 of call number n, 0 if none
	sparse map[uint64]int32
}

func newCallTable(calls int) callTable {
	return callTable{
		states: make([]callState, 0, calls),
		dense:  make([]int32, calls+1),
	}
}

// index32 returns n as an int32 slice position, or an error once n has
// outgrown the int32 fields that hold positions.
func index32(n int, what string) (int32, error) {
	if n >= math.MaxInt32 {
		return none, fmt.Errorf("critpath: more than %d %s", math.MaxInt32-1, what)
	}
	return int32(n), nil
}

// enter pushes a new call. Its first segment follows the caller's last
// node: the caller's segment closed just before this Enter (the profiler
// emits Ops first).
func (t *callTable) enter(ctx int32, num uint64) error {
	i, err := index32(len(t.states), "calls")
	if err != nil {
		return err
	}
	last := int32(none)
	if top := t.top(); top != nil {
		last = top.last
	}
	if prev := t.find(num); prev != none {
		t.states[prev].shadowed = true
	}
	t.states = append(t.states, callState{callNum: num, ctx: ctx, last: last, open: none, maxPred: none})
	t.stack = append(t.stack, i)
	if num >= uint64(len(t.dense)) && num < uint64(2*len(t.states)+denseSlack) {
		t.growDense(int(num) + 1)
	}
	if num < uint64(len(t.dense)) {
		t.dense[num] = i + 1
		return nil
	}
	if t.sparse == nil {
		t.sparse = make(map[uint64]int32)
	}
	t.sparse[num] = i
	return nil
}

// growDense extends the dense index to cover numbers below n, moving the
// sparse entries it now covers.
func (t *callTable) growDense(n int) {
	if n > cap(t.dense) {
		grown := make([]int32, n, max(n, 2*cap(t.dense)))
		copy(grown, t.dense)
		t.dense = grown
	} else {
		t.dense = t.dense[:n] // never written past its length, so still zero
	}
	for num, i := range t.sparse {
		if num < uint64(n) {
			t.dense[num] = i + 1
			delete(t.sparse, num)
		}
	}
}

// find returns the position of the latest call entered as num, or none.
func (t *callTable) find(num uint64) int32 {
	if num < uint64(len(t.dense)) {
		return t.dense[num] - 1
	}
	if i, ok := t.sparse[num]; ok {
		return i
	}
	return none
}

// byNumber returns the latest call entered as num, or nil.
func (t *callTable) byNumber(num uint64) *callState {
	if i := t.find(num); i != none {
		return &t.states[i]
	}
	return nil
}

// running returns the call a Comm or Ops event naming num belongs to, or
// nil. The profiler emits those only for the running call, so the top of
// the stack is tried first; it answers only when no later Enter re-used
// its number, so it always agrees with byNumber.
func (t *callTable) running(num uint64) *callState {
	if top := t.top(); top != nil && top.callNum == num && !top.shadowed {
		return top
	}
	return t.byNumber(num)
}

// top returns the innermost open call, or nil. The pointer is valid until
// the next enter.
func (t *callTable) top() *callState {
	if len(t.stack) == 0 {
		return nil
	}
	return &t.states[t.stack[len(t.stack)-1]]
}

func (t *callTable) pop() { t.stack = t.stack[:len(t.stack)-1] }

// Analysis is the result of processing one event stream.
type Analysis struct {
	// SerialOps is the program's total operation count — its serial
	// length under the methodology's instruction-count time proxy.
	SerialOps uint64
	// CriticalOps is the longest dependent chain's operation count.
	CriticalOps uint64
	// Segments is the number of chain nodes constructed.
	Segments uint64
	// Chain lists the critical path's function names from main to leaf
	// (consecutive duplicates collapsed), the form §IV-C reports.
	Chain []string
	// ChainCtxs is the same path as context IDs.
	ChainCtxs []int32
}

// Parallelism returns the maximum theoretical function-level speedup: the
// ratio of serial length to critical path length (Fig 13's metric).
func (a *Analysis) Parallelism() float64 {
	if a.CriticalOps == 0 {
		if a.SerialOps == 0 {
			return 1
		}
		return float64(a.SerialOps)
	}
	return float64(a.SerialOps) / float64(a.CriticalOps)
}

// analyzer is the incremental chain-construction state machine, shared by
// the in-memory Analyze and the streaming AnalyzeReader. Nodes live in one
// slice and refer to each other by position.
type analyzer struct {
	a     *Analysis
	calls callTable
	nodes []node
	best  int32
	names map[int32]string
}

// newAnalyzer sizes the state for the expected number of calls and closed
// segments; both grow past it as needed.
func newAnalyzer(calls, segments int) *analyzer {
	return &analyzer{
		a:     &Analysis{},
		calls: newCallTable(calls),
		nodes: make([]node, 0, segments),
		best:  none,
		names: make(map[int32]string),
	}
}

func (z *analyzer) ensureOpen(cs *callState) (int32, error) {
	if cs.open == none {
		n, err := index32(len(z.nodes), "segments")
		if err != nil {
			return none, err
		}
		z.nodes = append(z.nodes, node{ctx: cs.ctx, pred: none})
		cs.open = n
		// Sequential edge from the call's previous segment, or the
		// call edge for the first segment.
		cs.maxPred = cs.last
	}
	return cs.open, nil
}

func (z *analyzer) step(e *trace.Event) error {
	switch e.Kind {
	case trace.KindDefCtx:
		z.names[e.Ctx] = e.Name

	case trace.KindEnter:
		return z.calls.enter(e.Ctx, e.Call)

	case trace.KindLeave:
		cs := z.calls.top()
		if cs == nil {
			return fmt.Errorf("critpath: leave of call %d with empty stack", e.Call)
		}
		if cs.callNum != e.Call {
			return fmt.Errorf("critpath: leave of call %d while call %d is open", e.Call, cs.callNum)
		}
		z.calls.pop()

	case trace.KindComm:
		cs := z.calls.running(e.Call)
		if cs == nil {
			return fmt.Errorf("critpath: comm into unknown call %d", e.Call)
		}
		if _, err := z.ensureOpen(cs); err != nil {
			return err
		}
		// Producer's latest segment; synthetic producers (@startup,
		// @kernel) and producers with no recorded segment impose no
		// chain dependency.
		if e.SrcCtx >= 0 {
			if src := z.calls.byNumber(e.SrcCall); src != nil && src.last != none {
				if cs.maxPred == none || z.nodes[src.last].incl > z.nodes[cs.maxPred].incl {
					cs.maxPred = src.last
				}
			}
		}

	case trace.KindOps:
		cs := z.calls.running(e.Call)
		if cs == nil {
			return fmt.Errorf("critpath: ops for unknown call %d", e.Call)
		}
		i, err := z.ensureOpen(cs)
		if err != nil {
			return err
		}
		n := &z.nodes[i]
		n.self = e.Ops
		z.a.SerialOps += e.Ops
		n.pred = cs.maxPred
		n.incl = n.self
		if n.pred != none {
			n.incl += z.nodes[n.pred].incl
		}
		if z.best == none || n.incl > z.nodes[z.best].incl {
			z.best = i
		}
		cs.last = i
		cs.open = none
		cs.maxPred = none

	case trace.KindSys:
		// Syscalls impose no chain structure beyond the comm edges
		// already recorded for their buffers.
	}
	return nil
}

func (z *analyzer) finish(name func(int32) string) *Analysis {
	a := z.a
	a.Segments = uint64(len(z.nodes))
	if z.best != none {
		a.CriticalOps = z.nodes[z.best].incl
		for i := z.best; i != none; i = z.nodes[i].pred {
			a.ChainCtxs = append(a.ChainCtxs, z.nodes[i].ctx)
		}
		// Reverse into main→leaf order and collapse repeats.
		for i, j := 0, len(a.ChainCtxs)-1; i < j; i, j = i+1, j-1 {
			a.ChainCtxs[i], a.ChainCtxs[j] = a.ChainCtxs[j], a.ChainCtxs[i]
		}
		var compact []int32
		for _, c := range a.ChainCtxs {
			if len(compact) == 0 || compact[len(compact)-1] != c {
				compact = append(compact, c)
			}
		}
		a.ChainCtxs = compact
		for _, c := range a.ChainCtxs {
			a.Chain = append(a.Chain, name(c))
		}
	}
	return a
}

// Analyze builds dependency chains from an event stream and extracts the
// critical path.
func Analyze(tr *trace.Trace) (*Analysis, error) {
	calls, segments := countCallsAndSegments(tr)
	z := newAnalyzer(calls, segments)
	for i := range tr.Events {
		if err := z.step(&tr.Events[i]); err != nil {
			return nil, err
		}
	}
	return z.finish(tr.CtxName), nil
}

// countCallsAndSegments counts the Enter events (one call each) and the
// Ops events (one closed segment each) of tr, to size the chain state.
func countCallsAndSegments(tr *trace.Trace) (calls, segments int) {
	for i := range tr.Events {
		switch tr.Events[i].Kind {
		case trace.KindEnter:
			calls++
		case trace.KindOps:
			segments++
		}
	}
	return calls, segments
}

// AnalyzeReader runs the same analysis over an encoded event file without
// materializing it: each event is processed as it is decoded, so the trace
// streams through in one pass and memory grows with its calls and
// segments (a few dozen bytes each), not with its events.
func AnalyzeReader(r io.Reader) (*Analysis, error) {
	z := newAnalyzer(0, 0)
	rd := trace.NewReader(r)
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := z.step(&e); err != nil {
			return nil, err
		}
	}
	return z.finish(func(ctx int32) string {
		switch ctx {
		case trace.CtxStartup:
			return "@startup"
		case trace.CtxKernel:
			return "@kernel"
		}
		if n, ok := z.names[ctx]; ok {
			return n
		}
		return fmt.Sprintf("<ctx#%d>", ctx)
	}), nil
}

// AnalyzeFile loads path with trace.ReadAllWorkers (workers <= 0 selects
// one worker per CPU) and analyzes it. The chain construction itself is
// inherently sequential, but on framed (v3) files the decode — checksum
// verification, decompression, varint decoding — fans out across the
// pool, each frame decoding in place into the one event slice the
// footer's total sized.
func AnalyzeFile(path string, workers int) (*Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tr, err := trace.ReadAllWorkers(f, workers)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return Analyze(tr)
}
