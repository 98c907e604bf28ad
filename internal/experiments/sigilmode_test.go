package experiments

import (
	"bytes"
	"context"
	"testing"

	"sigil/internal/core"
	"sigil/internal/workloads"
)

// TestSigilModeRunMatchesCoreRun: the Fig 4–6 Sigil-mode timing run must
// profile exactly what core.Run profiles. Attaching the substrate to the
// machine beside the Sigil tool, which already forwards every primitive to
// it, would double-count every cost and show here as a profile mismatch.
func TestSigilModeRunMatchesCoreRun(t *testing.T) {
	s := NewSuite()
	for _, name := range []string{"blackscholes", "dedup", "vips"} {
		prog, input, err := workloads.Build(name, workloads.SimSmall)
		if err != nil {
			t.Fatal(err)
		}
		opts := s.coreOptions(name, ModeBaseline)
		timed, _, err := sigilRun(context.Background(), prog, input, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := core.Run(prog, opts, input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var a, b bytes.Buffer
		if err := core.WriteProfile(&a, timed); err != nil {
			t.Fatal(err)
		}
		if err := core.WriteProfile(&b, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: Sigil-mode timing run's profile differs from core.Run's", name)
		}
	}
}
