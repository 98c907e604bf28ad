package trace_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"sigil/internal/core"
	"sigil/internal/trace"
	"sigil/internal/workloads"
)

// decodeSink keeps the decoded trace live so the compiler cannot drop the
// measured call.
var decodeSink *trace.Trace

// BenchmarkTraceDecodeWorkload decodes the v3 event file of a real
// profiling run (blackscholes @ simsmall, default frame size) into a
// Trace, sequentially and on one worker per CPU: the event-file decode
// half of the critical-path post-processing.
func BenchmarkTraceDecodeWorkload(b *testing.B) {
	prog, input, err := workloads.Build("blackscholes", workloads.SimSmall)
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	w := trace.NewWriter(&file)
	if _, err := core.Run(prog, core.Options{Events: w}, input); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data := file.Bytes()
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				tr, err := trace.ReadAllWorkers(bytes.NewReader(data), workers)
				if err != nil {
					b.Fatal(err)
				}
				decodeSink = tr
			}
		})
	}
}
