package core

import (
	"fmt"
	"testing"
)

// Microbenchmarks for the classification hot path. The wide/streaming
// benches are where batching must win big (one lookup + one classification
// per span vs per granule); Mixed is the adversarial case where every
// granule's shadow state differs and the run detector degrades to
// granule-at-a-time plus a comparison.

const benchBase = uint64(1) << 32 // arbitrary arena base, chunk-aligned

// newBenchTool assembles a Tool with one open frame, bypassing the machine:
// the benchmarks call the observer entry points directly so they measure
// classification, not instruction dispatch.
func newBenchTool(opts Options) *Tool {
	tool := mustNew(newSubstrate(), opts)
	tool.growCtx(0)
	tool.growCtx(1)
	tool.stack = append(tool.stack, segFrame{ctx: 0, enc: encodeCtx(0), call: 1})
	return tool
}

// benchPaths runs fn over a fresh bench tool, as the "batched"
// sub-benchmark so BENCH_N.json names stay comparable across revisions.
func benchPaths(b *testing.B, opts Options, fn func(b *testing.B, tool *Tool)) {
	b.Run("batched", func(b *testing.B) {
		tool := newBenchTool(opts)
		b.ReportAllocs()
		fn(b, tool)
	})
}

// BenchmarkMemReadStream sweeps a 64KiB buffer in 8-byte loads through the
// MemRead entry point — the common streaming-read shape of every workload's
// inner loop.
func BenchmarkMemReadStream(b *testing.B) {
	const span = 1 << 16
	benchPaths(b, Options{}, func(b *testing.B, tool *Tool) {
		f := &tool.stack[0]
		tool.writeRange(f.enc, f.call, benchBase, benchBase+span-1, 0) // reads are local
		b.SetBytes(span)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for a := uint64(0); a < span; a += 8 {
				tool.MemRead(benchBase+a, 8)
			}
		}
	})
}

// BenchmarkMemReadWide classifies 4KiB spans in one call — the syscall
// marshalling shape, and the case chunk-run batching targets directly.
func BenchmarkMemReadWide(b *testing.B) {
	const span = 4096
	benchPaths(b, Options{}, func(b *testing.B, tool *Tool) {
		f := &tool.stack[0]
		tool.writeRange(f.enc, f.call, benchBase, benchBase+span-1, 0)
		b.SetBytes(span)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tool.readRange(f, benchBase, benchBase+span-1, 0)
		}
	})
}

// BenchmarkMemReadWideReuse is the wide read with the re-use extension on:
// the run fast path still hoists the classification but must walk the
// per-granule re-use counters.
func BenchmarkMemReadWideReuse(b *testing.B) {
	const span = 4096
	benchPaths(b, Options{TrackReuse: true}, func(b *testing.B, tool *Tool) {
		f := &tool.stack[0]
		tool.writeRange(f.enc, f.call, benchBase, benchBase+span-1, 0)
		b.SetBytes(span)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tool.readRange(f, benchBase, benchBase+span-1, 0)
		}
	})
}

// BenchmarkMemWriteWide marks 4KiB of producer state in one call.
func BenchmarkMemWriteWide(b *testing.B) {
	const span = 4096
	benchPaths(b, Options{}, func(b *testing.B, tool *Tool) {
		f := &tool.stack[0]
		b.SetBytes(span)
		for i := 0; i < b.N; i++ {
			tool.writeRange(f.enc, f.call, benchBase, benchBase+span-1, 0)
		}
	})
}

// BenchmarkMemReadMixed is the worst case for run detection: alternating
// writer call numbers break every run at length one, so the batched path
// pays the granule-at-a-time cost plus one struct comparison per granule.
// The target here is "no regression", not a win.
func BenchmarkMemReadMixed(b *testing.B) {
	const span = 4096
	benchPaths(b, Options{}, func(b *testing.B, tool *Tool) {
		f := &tool.stack[0]
		for g := uint64(0); g < span; g++ {
			tool.writeRange(f.enc, f.call+1+(g&1), benchBase+g, benchBase+g, 0)
		}
		b.SetBytes(span)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tool.readRange(f, benchBase, benchBase+span-1, 0)
		}
	})
}

// BenchmarkMemReadMixedPairs breaks runs at length two (alternating pairs
// of writer calls) — still under the cutover threshold, so the batched path
// must detect the short-run regime and fall back granule-at-a-time instead
// of paying run scans that never amortize.
func BenchmarkMemReadMixedPairs(b *testing.B) {
	const span = 4096
	benchPaths(b, Options{}, func(b *testing.B, tool *Tool) {
		f := &tool.stack[0]
		for g := uint64(0); g < span; g++ {
			tool.writeRange(f.enc, f.call+1+((g>>1)&1), benchBase+g, benchBase+g, 0)
		}
		b.SetBytes(span)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tool.readRange(f, benchBase, benchBase+span-1, 0)
		}
	})
}

// BenchmarkShadowCacheAlternating hammers the first-level lookup with reads
// alternating between chunks — the pattern (stack vs heap) that thrashed
// the old one-entry cache on every access.
func BenchmarkShadowCacheAlternating(b *testing.B) {
	for _, nChunks := range []int{2, 8} {
		b.Run(fmt.Sprintf("chunks=%d", nChunks), func(b *testing.B) {
			tb := newShadowTable(0, false, nil)
			for i := 0; i < nChunks; i++ {
				tb.get(uint64(i) << chunkBits)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.get(uint64(i%nChunks) << chunkBits)
			}
		})
	}
}

// BenchmarkShadowEvictChurn streams fresh chunks through a limited table:
// every get materializes, evicts and (after warmup) recycles the spare
// buffer — the dedup MaxShadowChunks regime.
func BenchmarkShadowEvictChurn(b *testing.B) {
	tb := newShadowTable(4, false, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.get(uint64(i) << chunkBits)
	}
}
