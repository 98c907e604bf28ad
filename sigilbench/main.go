// Command sigilbench is the repository's benchmark: it measures what
// profiling with Sigil costs its users, end to end and layer by layer.
// README.md in this directory describes the workloads and the metrics.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash sigilbench/run.sh --workload dedup-shadow --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it describes the
// run (host, Go version, commit, seed and sample counts).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// hardLimit bounds a whole invocation, whatever --seconds asks for, so a
// hung job ends the run with an error instead of running forever.
const hardLimit = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload to run: dedup-shadow, blackscholes-events or vips-reuse")
	seed := flag.Uint64("seed", DefaultSeed, "input seed; 0 runs each program on its own Spec input")
	secs := flag.Int("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *secs, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "sigilbench:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run measures one workload and prints the meta line and the result line
// to out.
func run(out io.Writer, name string, seed uint64, secs int, traced bool) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if secs < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()

	res, meta, err := measure(ctx, config{w: w, seed: seed, duration: time.Duration(secs) * time.Second}, traced)
	if err != nil {
		return err
	}
	meta["workload"], meta["seed"], meta["trace"] = w.name, seed, traced
	for k, v := range host() {
		meta[k] = v
	}
	mb, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n%s\n", mb, rb)
	return err
}

// measure runs one invocation and assembles its result line and metadata.
func measure(ctx context.Context, cfg config, traced bool) (result, map[string]any, error) {
	b, err := newBench(ctx, cfg)
	if err != nil {
		return result{}, nil, err
	}
	deadline := time.Now().Add(cfg.duration)
	var got map[string]float64
	meta := map[string]any{}
	table := endToEnd
	if traced {
		table = perLayer
		if got, meta, err = b.traced(deadline); err != nil {
			return result{}, nil, err
		}
	} else {
		b.measure(deadline)
		got, meta = b.endToEnd()
	}
	if ctx.Err() != nil {
		return result{}, nil, fmt.Errorf("run did not finish within %v", hardLimit)
	}
	metrics, err := tabulate(table, got)
	if err != nil {
		return result{}, nil, err
	}
	meta["error_rate"] = float64(b.failed) / float64(b.attempted)
	if b.firstErr != nil {
		meta["first_error"] = b.firstErr.Error()
		fmt.Fprintf(os.Stderr, "sigilbench: %d of %d jobs failed; first: %v\n", b.failed, b.attempted, b.firstErr)
	}
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, meta, nil
}

// host describes the machine and build the numbers come from.
func host() map[string]any {
	commit := os.Getenv("SIGILBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printSelfTimes writes the traced jobs' spans to standard error: per span
// name, the count, the median duration and the median self time.
func printSelfTimes(tr *tracer) {
	names := map[string]bool{}
	for _, s := range tr.spans {
		names[s.Name] = true
	}
	order := make([]string, 0, len(names))
	for n := range names {
		order = append(order, n)
	}
	sort.Strings(order)
	fmt.Fprintf(os.Stderr, "%-22s %6s %12s %12s\n", "span", "count", "median", "median self")
	for _, n := range order {
		d := tr.durations(n)
		self := tr.selfTimes(n)
		fmt.Fprintf(os.Stderr, "%-22s %6d %12v %12v\n", n, len(d),
			time.Duration(median(seconds(d))*1e9), time.Duration(median(seconds(self))*1e9))
	}
}
