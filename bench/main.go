// Command bench is the repository's benchmark: it measures what a user of
// the simulator waits for — a paper-scale load point on the sharded
// executor and a reduced Figure 6 sweep served by hxserved — in host
// time, checks that every simulated result is exactly right, and, with
// -trace 1, splits the cost across the repository's layers. See NOTES.md for the workloads, the
// metric definitions and which layer metric should move which end-to-end
// metric.
//
// Run it through run.sh from the repository root:
//
//	bash bench/run.sh --workload paper_point_sharded --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name of BENCHMARK.json to its run.
var workloads = map[string]func(*env) (*result, error){
	"paper_point_sharded": runPaperPointSharded,
	"fig6_served":         runFig6Served,
}

// env is one invocation's inputs.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string  // repository root (the checkout)
	out      string  // build and scratch directory inside the checkout
	tr       *tracer // non-nil in a traced run
}

// more reports whether another operation that is expected to take
// about last should still start, given the run began at start: the run
// measures for env.seconds, and an operation is started only while at
// least half of it fits.
func (e *env) more(start time.Time, last time.Duration) bool {
	return time.Since(start)+last/2 < time.Duration(e.seconds*float64(time.Second))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// problems lists every failed check; printed before the verdict.
	problems []string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// check counts one checked operation, failing it when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// fail records a failed check that is not an operation of its own: a
// whole-run property, such as the store serving every replayed curve.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	var e env
	var seed int64
	var trace int
	flag.StringVar(&e.workload, "workload", "", "workload name")
	flag.Int64Var(&seed, "seed", 1, "input seed (Config.Seed)")
	flag.Float64Var(&e.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&e.root, "root", ".", "repository root")
	flag.StringVar(&e.out, "out", ".bench_build", "build and scratch directory")
	flag.Parse()
	run, ok := workloads[e.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", e.workload)
		os.Exit(2)
	}
	if seed < 0 || e.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need --seed >= 0, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	e.seed, e.trace = uint64(seed), trace == 1
	if e.trace {
		e.tr = newTracer()
	}

	fmt.Println("host:", hostFingerprint(e.root, e.out))
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%v\n", e.workload, e.seed, e.seconds, e.trace)
	res, err := run(&e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if e.trace {
		fillPerLayer(res, e.tr.c)
		path, err := writeJSON(&e, fmt.Sprintf("%s-seed%d.json", e.workload, e.seed), e.tr.spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", len(e.tr.spans), path)
	}
	res.Correct = res.Failed == 0 && len(res.problems) == 0 && res.Attempted > 0
	for _, p := range res.problems {
		fmt.Println("FAILED CHECK:", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// writeJSON writes v, indented, to name under the run's output directory.
func writeJSON(e *env, name string, v any) (string, error) {
	dir := filepath.Join(e.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
