package critpath

import (
	"testing"

	"sigil/internal/core"
	"sigil/internal/trace"
	"sigil/internal/workloads"
)

// analysisSink keeps the result live so the compiler cannot drop the
// measured call.
var analysisSink *Analysis

// BenchmarkCritpathAnalyze builds the dependency chains of a real
// profiling run's event stream (blackscholes @ simsmall): the chain half
// of the critical-path post-processing, with the decode left out.
func BenchmarkCritpathAnalyze(b *testing.B) {
	prog, input, err := workloads.Build("blackscholes", workloads.SimSmall)
	if err != nil {
		b.Fatal(err)
	}
	var buf trace.Buffer
	if _, err := core.Run(prog, core.Options{Events: &buf}, input); err != nil {
		b.Fatal(err)
	}
	tr := trace.FromBuffer(&buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Analyze(tr)
		if err != nil {
			b.Fatal(err)
		}
		analysisSink = a
	}
}
