package core

import (
	"testing"

	"sigil/internal/vm"
)

// The fuzz harness compiles random byte strings into straight-line programs
// over an arena spanning several shadow chunks, then runs each program once
// with the batched chunk-run classifier and the spec side by side and
// demands identical output. The generated access mix covers everything the
// batched path special-cases: overlapping writes, runs broken by alternating
// writers/readers/calls, ranges crossing chunk boundaries, wide syscall
// in/out ranges, startup data, and all three profiling modes (plus an
// eviction-heavy variant).

// fuzzArenaGranules spans a bit more than three chunks so generated ranges
// can start and end in different chunks while the chunk working set stays
// tiny (at most five distinct chunks per run).
const fuzzArenaGranules = 3*chunkGranules + 4096

// fuzzMode decodes the mode selector byte.
func fuzzMode(sel byte) diffMode {
	switch sel % 5 {
	case 1:
		return diffMode{"reuse", Options{TrackReuse: true}, false}
	case 2:
		return diffMode{"line", Options{LineGranularity: true}, false}
	case 3:
		return diffMode{"reuse-evicting", Options{TrackReuse: true, MaxShadowChunks: 2}, false}
	case 4:
		return diffMode{"baseline-events", Options{}, true}
	default:
		return diffMode{"baseline", Options{}, false}
	}
}

// fuzzOffset maps three fuzz bytes to a granule offset within the arena.
// Half the draws land near a chunk boundary so cross-chunk spans and
// boundary-straddling accesses are common rather than lottery wins.
func fuzzOffset(a, c, d byte, maxLen uint64) uint64 {
	off := uint64(a)<<8 | uint64(c)
	if d&1 == 1 {
		off = uint64(d%3+1)*chunkGranules - uint64(a%16)
	}
	limit := uint64(fuzzArenaGranules) - maxLen
	if off > limit {
		off %= limit
	}
	return off
}

// fuzzProgram compiles the op stream into a program. granule is the data
// bytes per granule for the chosen mode (1 in byte mode, the line size in
// line mode): offsets and syscall lengths are drawn in granules and scaled,
// so cross-chunk coverage survives the mode's address shift.
func fuzzProgram(ops []byte, granule uint64) (*vm.Program, error) {
	b := vm.NewBuilder()
	init := make([]byte, 512)
	for i := range init {
		init[i] = byte(i * 7)
	}
	dataAddr := b.Data("init", init)
	arena := b.Reserve("arena", fuzzArenaGranules*granule)

	main := b.Func("main")
	if len(ops) > 4*64 {
		ops = ops[:4*64] // cap program length; shadow work per op is what matters
	}
	for len(ops) >= 4 {
		op, a, c, d := ops[0], ops[1], ops[2], ops[3]
		ops = ops[4:]
		size := uint8(1) << (d % 4) // 1, 2, 4, 8
		addr := arena + fuzzOffset(a, c, d, 16)*granule
		switch op % 7 {
		case 0: // plain store (overlapping writes arise naturally)
			main.MoviU(vm.R1, addr)
			main.Movi(vm.R2, int64(a))
			main.Store(vm.R1, 0, vm.R2, size)
		case 1: // plain load
			main.MoviU(vm.R1, addr)
			main.Load(vm.R3, vm.R1, 0, size)
		case 2: // helper call: distinct context + call number as reader/writer
			main.MoviU(vm.R1, addr)
			main.Call("toucherA")
		case 3:
			main.MoviU(vm.R1, addr)
			main.Call("toucherB")
		case 4: // syscall input: kernel produces a wide range
			n := 1 + (uint64(a)<<8|uint64(c))%5000
			main.MoviU(vm.R1, arena+fuzzOffset(a, c, d, n+1)*granule)
			main.Movi(vm.R2, int64(n*granule))
			main.Sys(vm.SysRead)
		case 5: // syscall output: caller marshals a wide range to the kernel
			n := 1 + (uint64(a)<<8|uint64(c))%5000
			main.MoviU(vm.R1, arena+fuzzOffset(a, c, d, n+1)*granule)
			main.Movi(vm.R2, int64(n*granule))
			main.Sys(vm.SysWrite)
		case 6: // read pre-initialized data: startup producer
			main.MoviU(vm.R1, dataAddr+uint64(a)%500)
			main.Load(vm.R4, vm.R1, 0, 8)
		}
	}
	main.Halt()

	// The helpers give the fuzzer cheap reader/writer context and call-number
	// churn: every call is a fresh call number, and the two functions are
	// distinct contexts, so runs get broken on every shadow field.
	ta := b.Func("toucherA")
	ta.Load(vm.R3, vm.R1, 0, 8)
	ta.Store(vm.R1, 8, vm.R3, 8)
	ta.Ret()
	tb := b.Func("toucherB")
	tb.Movi(vm.R5, 42)
	tb.Store(vm.R1, 0, vm.R5, 4)
	tb.Load(vm.R6, vm.R1, 0, 8)
	tb.Ret()

	return b.Build()
}

// fuzzInput is the SysRead byte stream: large enough that most generated
// read syscalls return data, patterned so kernel-produced bytes are
// distinguishable.
func fuzzInput() []byte {
	in := make([]byte, 1<<16)
	for i := range in {
		in[i] = byte(i*13 + 1)
	}
	return in
}

func runFuzzCase(t *testing.T, data []byte) {
	if len(data) < 5 {
		return
	}
	mode := fuzzMode(data[0])
	granule := uint64(1)
	if mode.opts.LineGranularity {
		granule = 64
	}
	prog, err := fuzzProgram(data[1:], granule)
	if err != nil {
		t.Fatalf("generated program failed to build: %v", err)
	}

	prod, spec, prodEv, specEv := specRun(t, prog, fuzzInput(), mode)
	assertResultsIdentical(t, prod, spec)
	if mode.events {
		assertEventsIdentical(t, prodEv, specEv)
	}
}

// FuzzBatchedClassifier differentially fuzzes the batched classifier
// against the spec. The seed corpus alone covers every mode and
// op kind, so `go test` exercises the differential even without -fuzz.
func FuzzBatchedClassifier(f *testing.F) {
	for m := 0; m < 5; m++ {
		seed := []byte{byte(m)}
		for i := 0; i < 48; i++ {
			seed = append(seed, byte(i), byte(i*37), byte(i*101), byte(i*13+m))
		}
		f.Add(seed)
	}
	// Boundary-heavy seed: every op lands next to a chunk edge.
	edge := []byte{1}
	for i := 0; i < 32; i++ {
		edge = append(edge, byte(i), byte(i*3), 0xFF, byte(2*i+1))
	}
	f.Add(edge)
	// Cutover seed (re-use mode): one-byte stores at every other granule
	// leave a syscall input range in alternating state, so readSpan hands
	// the rest of the span to readSpanTail; the range is written out twice
	// in one call, so the tail's episode updates decide the re-use counts.
	cut := []byte{1}
	for i := 0; i < 16; i++ {
		cut = append(cut, 0, 0, byte(32+2*i), 0)
	}
	cut = append(cut, 5, 0, 32, 0, 5, 0, 32, 0)
	f.Add(cut)
	f.Fuzz(runFuzzCase)
}
