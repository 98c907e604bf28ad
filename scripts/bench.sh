#!/bin/sh
# Run the performance benchmarks and write a BENCH_N.json: a map from
# benchmark name to the median ns/op (with the min and max of the samples)
# and median bytes/op, so successive PRs can be diffed, plus a "_meta" entry
# describing the host. Covers the self-overhead/ablation benches (root
# package), the shadow-memory hot-path microbenches (internal/core), the
# event-file emit/decode microbenches (internal/trace, including the decode
# of a real workload's event file) and the critical-path chain construction
# (internal/critpath).
#
# Usage:
#   scripts/bench.sh [regexp]              run benches (default pattern below),
#                                          write $OUT (default BENCH_6.json)
#   scripts/bench.sh compare OLD NEW       diff two bench JSON files; exits 1
#                                          if any shared benchmark's median
#                                          regressed >10% in ns/op or >25% in
#                                          bytes/op (allocation bloat
#                                          regressions — e.g. scratch buffers
#                                          falling out of a pool — fail the
#                                          gate even when ns/op still passes)
#
# Environment: COUNT samples per benchmark (default 5, passed as -count),
# BENCHTIME per sample (default 1x), OUT the output file. The "_meta" entry
# records nproc, GOMAXPROCS, the Go version, the CPU model, COUNT and
# BENCHTIME. Files written before COUNT existed hold one sample per entry;
# compare reads them the same way.
#
# When the run covers the BenchmarkAblationTracing pair, the script also
# gates the tracing overhead: the spans-enabled median must land within
# TRACING_GATE_PCT (default 3) percent of the spans-disabled median.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "compare" ]; then
    old="${2:?usage: bench.sh compare OLD.json NEW.json}"
    new="${3:?usage: bench.sh compare OLD.json NEW.json}"
    awk -v oldfile="$old" -v newfile="$new" '
    function parse(file, arr, barr,    line, name, ns, by) {
        while ((getline line < file) > 0) {
            if (match(line, /"[^"]+": \{"ns_per_op": [0-9.]+/)) {
                split(line, parts, "\"")
                name = parts[2]
                match(line, /"ns_per_op": [0-9.]+/)
                ns = substr(line, RSTART + 13, RLENGTH - 13)
                arr[name] = ns + 0
                if (match(line, /"bytes_per_op": [0-9.]+/)) {
                    by = substr(line, RSTART + 16, RLENGTH - 16)
                    barr[name] = by + 0
                }
            }
        }
        close(file)
    }
    BEGIN {
        parse(oldfile, oldns, oldby)
        parse(newfile, newns, newby)
        shared = 0; regressed = 0
        printf "%-60s %12s %12s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta"
        for (name in newns) {
            if (!(name in oldns)) continue
            shared++
            delta = (newns[name] - oldns[name]) / oldns[name] * 100
            flag = ""
            if (delta > 10) { flag = "  REGRESSION"; regressed++ }
            printf "%-60s %12.0f %12.0f %+7.1f%%%s\n", name, oldns[name], newns[name], delta, flag
            # Allocation gate: bytes/op regressions past 25% (on benches
            # big enough for the delta to mean something) fail even when
            # ns/op holds — pooled buffers leaving the pool show up here
            # long before they cost visible time.
            if ((name in oldby) && (name in newby) && oldby[name] >= 1024) {
                bdelta = (newby[name] - oldby[name]) / oldby[name] * 100
                if (bdelta > 25) {
                    printf "%-60s %12.0f %12.0f %+7.1f%%  ALLOC REGRESSION (bytes/op)\n", name, oldby[name], newby[name], bdelta
                    regressed++
                }
            }
        }
        if (shared == 0) {
            print "no shared benchmarks between " oldfile " and " newfile
            exit 1
        }
        if (regressed > 0) {
            print regressed " benchmark(s) regressed (>10% ns/op or >25% bytes/op)"
            exit 1
        }
        print "no regressions across " shared " shared benchmark(s) (ns/op and bytes/op)"
    }'
    exit $?
fi

PATTERN="${1:-Overhead|Ablation|MemRead|MemWrite|Shadow|TraceEmit|TraceDecode|Critpath}"
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-1x}"
OUT="${OUT:-BENCH_6.json}"
NPROC=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
PROCS="${GOMAXPROCS:-$NPROC}"
GOVERSION=$(go env GOVERSION)
CPU=$(sed -n 's/^model name[[:space:]]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1 | sed 's/["\\]//g')
CPU="${CPU:-$(uname -m)}"

raw=$(go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count "$COUNT" . ./internal/core ./internal/trace ./internal/critpath)
echo "$raw"

# One entry per benchmark: the median, min and max ns/op over its COUNT
# samples, and the median bytes/op. go test suffixes names with -GOMAXPROCS
# when it is not 1; the suffix is dropped so files from hosts with
# different core counts share names.
echo "$raw" | awk -v procs="$PROCS" -v nproc="$NPROC" -v gover="$GOVERSION" \
    -v cpu="$CPU" -v count="$COUNT" -v benchtime="$BENCHTIME" '
function median(list,    n, v, i, j, t) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j] + 0 < v[j - 1] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    lo = v[1]; hi = v[n]
    if (n % 2) return v[(n + 1) / 2]
    return (v[n / 2] + v[n / 2 + 1]) / 2
}
function num(x) { return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.4g", x) }
$1 ~ /^Benchmark/ {
    name = $1
    if (procs != 1) sub("-" procs "$", "", name)
    ns = ""; bytes = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")  ns = $(i - 1)
        if ($(i) == "B/op")   bytes = $(i - 1)
    }
    if (ns == "") next
    if (!(name in nsl)) order[++n] = name
    nsl[name] = nsl[name] " " ns
    if (bytes != "") byl[name] = byl[name] " " bytes
}
END {
    print "{"
    printf "  \"_meta\": {\"nproc\": %d, \"gomaxprocs\": %d, \"go\": \"%s\", \"cpu\": \"%s\", \"count\": %d, \"benchtime\": \"%s\"}", nproc, procs, gover, cpu, count, benchtime
    for (k = 1; k <= n; k++) {
        name = order[k]
        med = median(nsl[name])
        printf ",\n  \"%s\": {\"ns_per_op\": %s, \"ns_min\": %s, \"ns_max\": %s", name, num(med), num(lo), num(hi)
        if (name in byl) printf ", \"bytes_per_op\": %s", num(median(byl[name]))
        printf "}"
    }
    print "\n}"
}
' > "$OUT"

echo "wrote $OUT"

# Lint-runtime budget: the full-tree analyzer suite (CFG construction,
# reaching definitions and all) must stay fast enough to sit in the
# pre-commit loop. Budget in seconds, wall clock, including the driver
# build.
LINT_BUDGET_S="${LINT_BUDGET_S:-30}"
lint_start=$(date +%s)
go run ./cmd/sigil-lint ./... > /dev/null
lint_end=$(date +%s)
lint_elapsed=$((lint_end - lint_start))
echo "lint runtime: ${lint_elapsed}s (budget ${LINT_BUDGET_S}s)"
if [ "$lint_elapsed" -gt "$LINT_BUDGET_S" ]; then
    echo "LINT RUNTIME BUDGET EXCEEDED"
    exit 1
fi

# Tracing-overhead gate: when this run measured the AblationTracing pair,
# require the spans-enabled ablation within TRACING_GATE_PCT of disabled.
TRACING_GATE_PCT="${TRACING_GATE_PCT:-3}"
awk -v gate="$TRACING_GATE_PCT" '
function ns(line) { match(line, /"ns_per_op": [0-9.]+/); return substr(line, RSTART + 13, RLENGTH - 13) + 0 }
/"BenchmarkAblationTracing\/tracing=false"/ { off = ns($0) }
/"BenchmarkAblationTracing\/tracing=true"/  { on = ns($0) }
END {
    if (off == "" || on == "") exit 0  # pair not in this run
    delta = (on - off) / off * 100
    printf "tracing overhead (medians): %.0f ns/op -> %.0f ns/op (%+.2f%%, gate %s%%)\n", off, on, delta, gate
    if (delta > gate + 0) {
        print "TRACING OVERHEAD GATE FAILED"
        exit 1
    }
}' "$OUT"
