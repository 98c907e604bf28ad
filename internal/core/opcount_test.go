package core

import (
	"context"
	"errors"
	"testing"

	"sigil/internal/trace"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// Operations are machine counters charged at call boundaries, not
// callbacks, so a run that stops early must still charge every operation
// retired before the stop. These tests stop real runs three ways and check
// the salvaged totals against the event stream and against a plain machine
// stopped after the same instructions.

// cancelAfter is an event sink that records events and cancels the run's
// context once it has accepted n of them: a deterministic mid-run cancel.
type cancelAfter struct {
	trace.Buffer
	n      int
	cancel context.CancelFunc
}

func (s *cancelAfter) Emit(e trace.Event) error {
	if len(s.Events) == s.n {
		s.cancel()
	}
	return s.Buffer.Emit(e)
}

// eventOps sums the KindOps events of a stream.
func eventOps(events []trace.Event) uint64 {
	var sum uint64
	for _, e := range events {
		if e.Kind == trace.KindOps {
			sum += e.Ops
		}
	}
	return sum
}

// plainOps runs p on a plain machine under a null observer until it has
// retired stopAt instructions (checked at poll points, as the Sigil run's
// budget and cancel are) or faults past maxInstrs, and returns the
// machine's op counts and retired instructions.
func plainOps(t *testing.T, p *vm.Program, input []byte, maxInstrs uint64, stopAt uint64) (intOps, fpOps, instrs uint64) {
	t.Helper()
	m := vm.NewMachine()
	m.SetInput(input)
	m.MaxInstrs = maxInstrs
	if stopAt > 0 {
		errStop := errors.New("stop")
		m.StopCheck = func() error {
			if m.InstrCount() >= stopAt {
				return errStop
			}
			return nil
		}
	}
	if _, err := m.Run(p, vm.BaseObserver{}); err == nil {
		t.Fatal("plain run was not stopped")
	}
	intOps, fpOps = m.OpCounts()
	return intOps, fpOps, m.InstrCount()
}

// checkOps asserts the salvaged profile charges exactly the plain
// machine's operations, per class.
func checkOps(t *testing.T, res *Result, intOps, fpOps, instrs uint64) {
	t.Helper()
	var gotInt, gotFP uint64
	for _, n := range res.Profile.Nodes {
		gotInt += n.Self.IntOps
		gotFP += n.Self.FPOps
	}
	if gotInt != intOps || gotFP != fpOps {
		t.Errorf("profile charged %d int + %d fp ops, plain machine retired %d + %d",
			gotInt, gotFP, intOps, fpOps)
	}
	if res.Profile.TotalInstrs != instrs {
		t.Errorf("profile stopped at %d instructions, plain machine at %d", res.Profile.TotalInstrs, instrs)
	}
}

func TestExactOpsUnderBudgetStop(t *testing.T) {
	prog, input, err := workloads.Build("blackscholes", workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 5 * vm.StopCheckInterval
	var buf trace.Buffer
	res, err := RunContext(context.Background(), prog, Options{Events: &buf, MaxInstrs: budget}, input)
	var berr *BudgetError
	if !errors.As(err, &berr) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if got, want := res.Profile.TotalOps(), eventOps(buf.Events); got != want || got == 0 {
		t.Errorf("profile TotalOps = %d, KindOps events sum to %d", got, want)
	}
	intOps, fpOps, instrs := plainOps(t, prog, input, 0, budget)
	checkOps(t, res, intOps, fpOps, instrs)
}

func TestExactOpsUnderCancel(t *testing.T) {
	prog, input, err := workloads.Build("blackscholes", workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAfter{n: 2000, cancel: cancel}
	res, err := RunContext(ctx, prog, Options{Events: sink}, input)
	var cerr *vm.CancelError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *vm.CancelError", err)
	}
	if got, want := res.Profile.TotalOps(), eventOps(sink.Events); got != want || got == 0 {
		t.Errorf("profile TotalOps = %d, KindOps events sum to %d", got, want)
	}
	intOps, fpOps, instrs := plainOps(t, prog, input, 0, cerr.Instrs)
	checkOps(t, res, intOps, fpOps, instrs)
}

// TestExactOpsUnderPanicSalvage: a panic skips the machine's ProgramEnd;
// abort's final substrate attribution still charges every operation. The
// panic fires inside an event callback, which only call, return, syscall
// and halt instructions make, none of which is an operation, so a plain
// machine that faults on the same instruction retired the same operations.
func TestExactOpsUnderPanicSalvage(t *testing.T) {
	prog, input, err := workloads.Build("blackscholes", workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), prog, Options{Events: &panicSink{after: 2000}}, input)
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if res.Profile.TotalOps() == 0 {
		t.Fatal("salvaged profile charged no operations")
	}
	intOps, fpOps, instrs := plainOps(t, prog, input, res.Profile.TotalInstrs-1, 0)
	checkOps(t, res, intOps, fpOps, instrs)
}
