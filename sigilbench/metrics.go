package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric declares one figure the benchmark prints. These tables are the
// Go-side statement of the metric set; BENCHMARK.json at the repository
// root repeats them with their bounds, and
// TestMetricTablesMatchBenchmarkJSON keeps the two identical.
type metric struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the figures a user of the profiler sees, measured with
// tracing off (--trace 0).
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"profile_p50_s", "s", "lower"},
	{"profile_tail_s", "s", "lower"},
	{"guest_mips", "Minstr/s", "higher"},
	{"callgrind_p50_s", "s", "lower"},
	{"analyze_p50_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"success_rate", "ratio", "higher"},
}

// perLayer are the figures of single layers, measured by the traced run
// (--trace 1). A layer the workload's jobs never call reports 0.
var perLayer = []metric{
	{"workloads.build_s", "s", "lower"},
	{"vm.native_s", "s", "lower"},
	{"vm.ns_per_instr", "ns", "lower"},
	{"vm.instrs", "count", "lower"},
	{"dbi.dispatch_s", "s", "lower"},
	{"dbi.ns_per_primitive", "ns", "lower"},
	{"dbi.primitives", "count", "lower"},
	{"dbi.callgrind_slowdown", "x", "lower"},
	{"dbi.sigil_slowdown", "x", "lower"},
	{"callgrind.self_s", "s", "lower"},
	{"callgrind.ns_per_primitive", "ns", "lower"},
	{"callgrind.contexts", "count", "lower"},
	{"cachesim.ns_per_access", "ns", "lower"},
	{"cachesim.accesses", "count", "lower"},
	{"cachesim.l1_miss_ratio", "ratio", "lower"},
	{"cachesim.ll_miss_ratio", "ratio", "lower"},
	{"branchsim.ns_per_branch", "ns", "lower"},
	{"branchsim.branches", "count", "lower"},
	{"branchsim.mispredict_ratio", "ratio", "lower"},
	{"core.self_s", "s", "lower"},
	{"core.self_share", "ratio", "lower"},
	{"core.ns_per_access", "ns", "lower"},
	{"core.shadow_peak_mb", "MB", "lower"},
	{"core.chunks_allocated", "count", "lower"},
	{"core.reuse_s", "s", "lower"},
	{"core.emit_s", "s", "lower"},
	{"core.events", "count", "lower"},
	{"core.profile_write_s", "s", "lower"},
	{"core.profile_read_s", "s", "lower"},
	{"runtime.alloc_mb_per_job", "MB", "lower"},
	{"runtime.gc_cycles_per_job", "count", "lower"},
	{"trace.encode_ns_per_event", "ns", "lower"},
	{"trace.bytes_per_event", "B", "lower"},
	{"trace.emit_stalls", "count", "lower"},
	{"trace.decode_ns_per_event", "ns", "lower"},
	{"critpath.ns_per_event", "ns", "lower"},
	{"critpath.parallelism", "x", "higher"},
	{"cdfg.partition_s", "s", "lower"},
	{"reuse.analyze_s", "s", "lower"},
	{"bench.trace_overhead", "x", "lower"},
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tabulate attaches units to measured values, insisting that exactly the
// declared metrics were measured: a missing or stray name is a benchmark
// bug, not something to paper over in the output.
func tabulate(table []metric, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(table))
	for _, m := range table {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if len(got) != len(table) {
		for name := range got {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond the reported tail.
const tailSamples = 10

// tail returns the highest order statistic with at least tailSamples
// samples above it, and the percentile that sample sits at. With too few
// samples for that it returns the maximum and ok=false.
func tail(xs []float64) (v, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	if n <= tailSamples {
		return s[n-1], 100, false
	}
	i := n - 1 - tailSamples
	return s[i], 100 * float64(i+1) / float64(n), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
