// Command perfbench is the repository benchmark. One invocation runs one
// seeded workload in a closed loop for a fixed time, checks every output
// against a reference the code under test did not produce, and prints every
// metric with its unit; the last line of standard output is one JSON object
// with the fields correct, attempted, failed and metrics.
//
//	perfbench --workload compile|edit|run --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the same loop runs with spans recorded around
// every call into a layer, and the metrics are the per-layer ones (self time
// per span name, counts, ratios); the spans are written to
// .bench_build/traces/<workload>-seed<N>.json. README.md in this directory
// explains the workloads, the layers each one stresses and bypasses, and the
// first recorded numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload receives: the seed and time budget, a scratch
// directory inside the checkout, and the tracer (nil when untraced).
type env struct {
	seed    int64
	seconds time.Duration
	work    string
	tr      *tracer
}

// outcome is what a workload reports. Mismatches are outputs that differ
// from their reference or counts that failed to repeat; each one is also
// counted in failed.
type outcome struct {
	attempted, failed int64
	mismatches        []string
	e2e, layers       map[string]metric
	rows              []string
}

func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*outcome, error){
	"compile": compileWorkload,
	"edit":    editWorkload,
	"run":     runWorkload,
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: compile, edit or run")
	seed := fs.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the measured loop in seconds")
	traced := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload compile|edit|run, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), work: work}
	if *traced == 1 {
		// Heap attribution reads the heap counter, which stops the world, at
		// every span boundary; only compile reports <kind>.alloc_kb, so only
		// compile pays for it.
		e.tr = newTracer(*name == "compile")
	}
	out, err := wl(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if path, err := e.tr.write(filepath.Join(".bench_build", "traces"), fmt.Sprintf("%s-seed%d", *name, *seed)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	} else if path != "" {
		fmt.Printf("spans written to %s\n", path)
	}
	for _, m := range out.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH: %s\n", m)
	}
	res := result{
		Correct:   len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.e2e,
	}
	if e.tr != nil {
		// The traced loop's own end-to-end figures: minus the untraced ones
		// of the same seed, they are the tracing overhead.
		for _, name := range []string{"p50_ms", "p99_ms", "ops_per_s"} {
			setLayer(out.layers, "traced."+name, out.e2e[name].Value)
		}
		res.Metrics = out.layers
	}
	for _, r := range out.rows {
		fmt.Println(r)
	}
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// geomean is the geometric mean of positive values (non-positive ones are
// skipped); 0 for none.
func geomean(vs []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quantile is the nearest-rank quantile q in [0, 1] of vs; 0 for none.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	idx := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(idx, len(c)-1))]
}

// median of float64 values; 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// heapLimit is the heap a set-up or a timed run loop may grow to before the
// collector runs on its own. Both turn the collector's pacing off and
// collect between operations, outside the timing, so an operation that
// allocates less than this runs with no collection inside its timing: its
// time is its own work, not where the collector's cycles happened to fall.
const heapLimit = 256 << 20

// pauseGC turns the collector's pacing off, up to heapLimit, and returns the
// function that restores it.
func pauseGC() (restore func()) {
	gcPercent := debug.SetGCPercent(-1)
	memLimit := debug.SetMemoryLimit(heapLimit)
	return func() {
		debug.SetGCPercent(gcPercent)
		debug.SetMemoryLimit(memLimit)
	}
}

// collectAbove runs the collector if the heap holds more than n bytes.
func collectAbove(n uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Uint64() > n {
		runtime.GC()
	}
}

// setupTimes runs set-up reps times and returns the median duration with the
// state of the last rep; every rep must produce the same fingerprint, so the
// counts a set-up computes are checked to repeat exactly. Each rep starts
// from a collected heap, outside the timing, so no rep pays for the garbage
// of the one before it.
func setupTimes[T any](reps int, fn func(rep int) (T, string, error)) (T, float64, []string, error) {
	var (
		last     T
		times    []float64
		problems []string
		first    string
	)
	defer pauseGC()()
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		t0 := time.Now()
		st, fp, err := fn(rep)
		if err != nil {
			return last, 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if rep == 0 {
			first = fp
		} else if fp != first {
			problems = append(problems, fmt.Sprintf("set-up %d counts %q differ from set-up 0 counts %q", rep, fp, first))
		}
		last = st
	}
	return last, median(times), problems, nil
}

// rowf formats one per-input row of the human-readable report.
func rowf(format string, args ...any) string {
	return strings.TrimRight(fmt.Sprintf(format, args...), " ")
}
