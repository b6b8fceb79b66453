package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/pass"
	"repro/internal/runtime"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// executor is one way the run workload executes a compiled system.
type executor struct {
	name   string // span and row name
	metric string // per-layer metric suffix
	par    bool   // runs the P=2 partitioned result
	native bool   // a generated C binary rather than a Go engine
	// firings is how many firings one timed sample executes: a sample runs
	// the whole number of periods that reaches it, and at least minPeriods.
	// Sequential C runs one to two orders of magnitude faster per firing
	// than the others, so it gets more firings per sample. The threaded C
	// gets enough that even its tail (p99 over periods, set by barrier
	// wake-ups) rests on many periods.
	firings int64
}

var executors = []executor{
	{"c", "gen_c_ns_per_firing", false, true, 400_000},
	{"c_p2", "gen_c_p2_ns_per_firing", true, true, 100_000},
	{"engine", "engine_ns_per_firing", false, false, 30_000},
	{"engine_p2", "engine_p2_ns_per_firing", true, false, 30_000},
}

const (
	// minPeriods leaves timed periods after the 4 untimed ones the
	// generated sequential main runs.
	minPeriods    = 6
	runPartitions = 2
	// loopHeap is the heap above which the timed loop collects between
	// samples; the largest engine sample, qmf235_5d, allocates about 9 MB.
	loopHeap = 64 << 20
	// runSetups is how many times set-up runs; cc -O2 on the two 188-actor
	// filterbanks takes most of a set-up's 8 s. Three is the fewest whose
	// median discards one set-up that met a burst of other load.
	runSetups = 3
)

func runGraphs() []*sdf.Graph {
	return []*sdf.Graph{
		systems.SatelliteReceiver(),
		systems.TwoSidedFilterbank(5, systems.Ratio235),
		systems.TwoSidedFilterbank(5, systems.Ratio23),
		systems.PhasedArray(),
		systems.BlockVox(),
		systems.CDDAT(),
	}
}

// runSys is one compiled system with its built binaries.
type runSys struct {
	name     string
	seq, par *core.Result
	firings  int64 // firings per period
	bmlb     int64
	bins     [2]string // sequential and threaded binary; "" without cc
}

// periodsFor is how many periods one sample of ex runs on s.
func (s *runSys) periodsFor(ex executor) int {
	return max(minPeriods, int((ex.firings+s.firings-1)/s.firings))
}

func (s *runSys) result(ex executor) *core.Result {
	if ex.par {
		return s.par
	}
	return s.seq
}

// runCompile compiles g the way sdfc does (verification on), at P=1 or P=2.
// Traced, it runs as a one-point plan so partition and segalloc get spans,
// under parent and with the set-up's req.
func runCompile(ctx context.Context, tr *tracer, parent, req int64, g *sdf.Graph, partitions int) (*core.Result, error) {
	opts := sdfcOptions()
	opts.Partitions = partitions
	if tr == nil {
		return core.CompileContext(ctx, g, opts)
	}
	_, outs, err := runPlan(ctx, tr, parent, req, g, []pass.Options{opts}, nil)
	if err != nil {
		return nil, err
	}
	return outs[0].Result, outs[0].Err
}

// wrapperSource wraps generated C in a benchmark wrapper: it renames the
// generated main, lets argv[1] set the period count, stamps every period
// boundary with the monotonic clock, and then prints the period times and
// every edge's queued tokens as raw bits. Sequential C runs its own 4
// periods inside the generated main, untimed, and the wrapper calls
// run_period for the rest. Threaded C has its period bound
// re-parameterized, and worker 0 stamps the start of each period, which is
// when it has passed the previous period's last barrier; the last period,
// which ends in thread exit and join, is not timed.
func wrapperSource(gen string, g *sdf.Graph, threaded bool, workers int) (string, error) {
	var b strings.Builder
	b.WriteString(`#define _POSIX_C_SOURCE 200809L
#include <stdlib.h>
#include <string.h>
#include <time.h>

static long bench_periods = 4;
static long long *bench_t;

static long long bench_now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

#define main bench_generated_main
`)
	first, last := "4", "bench_periods"
	if threaded {
		first, last = "0", "bench_periods - 1"
		const loop = "for (int period = 0; period < 4; period++) {"
		const w0 = "static void *worker_0(void *arg) {"
		if n := strings.Count(gen, loop); n != workers {
			return "", fmt.Errorf("threaded C for %s has %d period loops, want %d", g.Name, n, workers)
		}
		i := strings.Index(gen, w0)
		if i < 0 || !strings.Contains(gen[i:], loop) {
			return "", fmt.Errorf("threaded C for %s has no worker 0 period loop", g.Name)
		}
		i += len(w0)
		gen = gen[:i] + strings.Replace(gen[i:], loop, loop+" bench_t[period] = bench_now();", 1)
		gen = strings.ReplaceAll(gen, loop, "for (long period = 0; period < bench_periods; period++) {")
	}
	b.WriteString(gen)
	b.WriteString(`#undef main

static void bench_edge(int id, long off, long size, long words, long r, long w) {
    printf("e %d %ld", id, w - r);
    for (long k = r; k < w; k++) {
        unsigned long long bits;
        double v = mem[off + (k * words) % size];
        memcpy(&bits, &v, sizeof bits);
        printf(" %016llx", bits);
    }
    printf("\n");
}

int main(int argc, char **argv) {
    if (argc > 1) bench_periods = atol(argv[1]);
    bench_t = calloc(bench_periods + 1, sizeof *bench_t);
    if (!bench_t) return 1;
    bench_generated_main();
`)
	if !threaded {
		b.WriteString(`    bench_t[4] = bench_now();
    for (long p = 4; p < bench_periods; p++) {
        run_period();
        bench_t[p + 1] = bench_now();
    }
`)
	}
	fmt.Fprintf(&b, `    printf("p");
    for (long p = %s; p < %s; p++) printf(" %%lld", bench_t[p + 1] - bench_t[p]);
    printf("\n");
`, first, last)
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "    bench_edge(%d, E%d_OFF, E%d_SIZE, E%d_W, r%d, w%d);\n", e.ID, e.ID, e.ID, e.ID, e.ID, e.ID)
	}
	b.WriteString("    return 0;\n}\n")
	return b.String(), nil
}

// buildC writes the wrapper for one generated program and compiles it.
func buildC(ctx context.Context, cc, dir, name, src string, threaded bool) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	cfile := filepath.Join(dir, name+".c")
	bin := filepath.Join(dir, name)
	if err := os.WriteFile(cfile, []byte(src), 0o644); err != nil {
		return "", err
	}
	args := []string{"-O2", "-o", bin, cfile}
	if threaded {
		args = append(args, "-pthread")
	}
	cmd := exec.CommandContext(ctx, cc, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("cc %s: %v: %s", name, err, stderr.String())
	}
	return bin, nil
}

// runSetup compiles the six systems sequentially and at P=2, generates
// sequential and threaded C, and builds both with cc -O2, two builds at a
// time. It returns the systems and a fingerprint of the counts it computed.
func runSetup(ctx context.Context, tr *tracer, dir, cc string, rep int) ([]*runSys, string, error) {
	var out []*runSys
	var fp strings.Builder
	type job struct {
		sys      *runSys
		slot     int
		name     string
		src      string
		threaded bool
	}
	var jobs []job
	req := int64(rep + 1)
	for _, src := range runGraphs() {
		root := tr.begin("setup."+src.Name, 0, req)
		g, err := parseText(src)
		if err != nil {
			return nil, "", err
		}
		s := &runSys{name: g.Name}
		if s.seq, err = runCompile(ctx, tr, root, req, g, 1); err != nil {
			return nil, "", fmt.Errorf("%s: %w", g.Name, err)
		}
		if s.par, err = runCompile(ctx, tr, root, req, g, runPartitions); err != nil {
			return nil, "", fmt.Errorf("%s at P=%d: %w", g.Name, runPartitions, err)
		}
		if s.bmlb, err = g.BMLB(); err != nil {
			return nil, "", err
		}
		s.firings = s.seq.Repetitions.TotalFirings()
		fmt.Fprintf(&fp, "%s:cells=%d,p2_cells=%d,phases=%d ", s.name, s.seq.Best.Total, s.par.Segmented.Total, s.par.Partition.NumPhases)
		if cc != "" {
			id := tr.begin("codegen", root, req)
			seqC := codegen.GenerateC(s.seq)
			parC := codegen.GenerateThreadedC(s.par)
			tr.end(id)
			seqSrc, err := wrapperSource(seqC, g, false, 1)
			if err != nil {
				return nil, "", err
			}
			parSrc, err := wrapperSource(parC, g, true, s.par.Partition.P)
			if err != nil {
				return nil, "", err
			}
			jobs = append(jobs, job{s, 0, s.name, seqSrc, false}, job{s, 1, s.name + "_p2", parSrc, true})
		}
		tr.end(root)
		out = append(out, s)
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     int
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(jobs) || firstErr != nil {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()
				id := tr.begin("cc", 0, req)
				bin, err := buildC(ctx, cc, dir, j.name, j.src, j.threaded)
				tr.end(id)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				j.sys.bins[j.slot] = bin
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, fp.String(), firstErr
}

// cFire is the actor body of the generated C as a runtime.Fire: the firing
// sums its inputs in edge and token order, and output token i is that sum
// plus i. The output buffers are allocated once, when the closure is made,
// and reused by every firing: the engines copy a firing's outputs into
// their memory image before the next firing, and fire each actor from one
// goroutine only. So the heap an engine period allocates is the engine's
// own, not the benchmark's.
func cFire(outRates []int64) runtime.Fire {
	out := make([][]float64, len(outRates))
	for i, n := range outRates {
		out[i] = make([]float64, n)
	}
	return func(inputs [][]float64) [][]float64 {
		var acc float64
		for _, in := range inputs {
			for _, v := range in {
				acc += v
			}
		}
		for _, vals := range out {
			for k := range vals {
				vals[k] = acc + float64(k)
			}
		}
		return out
	}
}

func cFires(g *sdf.Graph) map[sdf.ActorID]runtime.Fire {
	fires := make(map[sdf.ActorID]runtime.Fire, g.NumActors())
	for _, a := range g.Actors() {
		var rates []int64
		for _, e := range g.Out(a.ID) {
			rates = append(rates, g.Edge(e).Prod)
		}
		fires[a.ID] = cFire(rates)
	}
	return fires
}

// refState is the state after some periods: every edge's queued tokens as
// float64 bits, and each actor's sum of its firings' input sums (what the
// threaded C prints as check_<actor>).
type refState struct {
	edges  [][]uint64
	checks []uint64
}

// reference runs the C actor bodies over plain per-edge FIFOs with its own
// demand-driven scheduler: each period fires any enabled actor that has not
// yet fired its repetitions count. It shares no code with the schedule,
// allocation, code generator or engines it checks, and SDF determinism makes
// its token values those of any valid firing order.
func reference(g *sdf.Graph, periods int) (refState, error) {
	q, err := g.Repetitions()
	if err != nil {
		return refState{}, err
	}
	fifo := make([][]float64, g.NumEdges())
	for _, e := range g.Edges() {
		fifo[e.ID] = make([]float64, e.Delay)
	}
	checks := make([]float64, g.NumActors())
	for p := 0; p < periods; p++ {
		fired := make([]int64, g.NumActors())
		left := q.TotalFirings()
		for left > 0 {
			progress := false
			for _, a := range g.Actors() {
				for fired[a.ID] < q[a.ID] && enabled(g, fifo, a.ID) {
					var acc float64
					for _, eid := range g.In(a.ID) {
						cons := g.Edge(eid).Cons
						for _, v := range fifo[eid][:cons] {
							acc += v
						}
						fifo[eid] = fifo[eid][cons:]
					}
					for _, eid := range g.Out(a.ID) {
						for k := int64(0); k < g.Edge(eid).Prod; k++ {
							fifo[eid] = append(fifo[eid], acc+float64(k))
						}
					}
					checks[a.ID] += acc
					fired[a.ID]++
					left--
					progress = true
				}
			}
			if !progress {
				return refState{}, fmt.Errorf("reference: %s deadlocks in period %d", g.Name, p)
			}
		}
	}
	st := refState{edges: make([][]uint64, g.NumEdges())}
	for e, toks := range fifo {
		st.edges[e] = floatBits(toks)
	}
	st.checks = floatBits(checks)
	return st, nil
}

func enabled(g *sdf.Graph, fifo [][]float64, a sdf.ActorID) bool {
	for _, eid := range g.In(a) {
		if int64(len(fifo[eid])) < g.Edge(eid).Cons {
			return false
		}
	}
	return true
}

func floatBits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// parseDump reads a wrapper's output: the period times, every edge line,
// and, for threaded C, the check_ lines the generated main prints in actor
// order.
func parseDump(out string, edges int) ([]float64, refState, error) {
	st := refState{edges: make([][]uint64, edges)}
	var periods []float64
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 1 && f[0] == "p":
			for _, x := range f[1:] {
				v, err := strconv.ParseInt(x, 10, 64)
				if err != nil {
					return nil, st, fmt.Errorf("bad period line %q", line)
				}
				periods = append(periods, float64(v))
			}
		case len(f) >= 3 && f[0] == "e":
			id, err1 := strconv.Atoi(f[1])
			n, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil || id < 0 || id >= edges || n != len(f)-3 {
				return nil, st, fmt.Errorf("bad edge line %q", line)
			}
			toks := make([]uint64, n)
			for i, h := range f[3:] {
				v, err := strconv.ParseUint(h, 16, 64)
				if err != nil {
					return nil, st, fmt.Errorf("bad token %q", h)
				}
				toks[i] = v
			}
			st.edges[id] = toks
		case len(f) == 3 && strings.HasPrefix(f[0], "check_") && f[1] == "=":
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, st, fmt.Errorf("bad check line %q", line)
			}
			st.checks = append(st.checks, math.Float64bits(v))
		}
	}
	if len(periods) == 0 {
		return nil, st, fmt.Errorf("no period times in output")
	}
	return periods, st, nil
}

// sameState compares a state with the reference; checks are compared only
// when the state has them (threaded C).
func sameState(got, want refState) error {
	for e := range want.edges {
		if !equalBits(got.edges[e], want.edges[e]) {
			return fmt.Errorf("edge %d holds %d tokens %x, reference %d tokens %x", e, len(got.edges[e]), got.edges[e], len(want.edges[e]), want.edges[e])
		}
	}
	if got.checks != nil && !equalBits(got.checks, want.checks) {
		return fmt.Errorf("checksums %x, reference %x", got.checks, want.checks)
	}
	return nil
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// engineState reads every edge's queue from an engine.
func engineState(g *sdf.Graph, tokensOn func(sdf.EdgeID) []float64) refState {
	st := refState{edges: make([][]uint64, g.NumEdges())}
	for _, e := range g.Edges() {
		st.edges[e.ID] = floatBits(tokensOn(e.ID))
	}
	return st
}

// runClass is one (system, executor) pair of the timed loop.
type runClass struct {
	sys     *runSys
	ex      executor
	periods []float64 // ns of every timed period
	// visitP99 and visitMean are each visit's 99th-percentile and mean
	// period time in ns. The class's tail and throughput are their medians
	// over visits, so a burst of other load on the machine that stalls a
	// minority of visits does not move them.
	visitP99, visitMean []float64
	first               refState
	have                bool
}

// sample runs one timed sample of a class: n periods from a fresh start. It
// returns the times of the timed periods and the state the run ended in.
// For the Go engines it adds the heap bytes and allocations of the run.
func (c *runClass) sample(ctx context.Context, tr *tracer, req int64, allocBytes, mallocs *uint64) ([]float64, refState, error) {
	n := c.sys.periodsFor(c.ex)
	res := c.sys.result(c.ex)
	g := res.Graph
	id := tr.begin(c.ex.name, 0, req)
	defer tr.end(id)
	if c.ex.native {
		bin := c.sys.bins[0]
		if c.ex.par {
			bin = c.sys.bins[1]
		}
		out, err := exec.CommandContext(ctx, bin, strconv.Itoa(n)).Output()
		if err != nil {
			return nil, refState{}, fmt.Errorf("%s: %w", bin, err)
		}
		return parseDump(string(out), g.NumEdges())
	}
	var (
		run      func() error
		tokensOn func(sdf.EdgeID) []float64
	)
	if c.ex.par {
		eng, err := runtime.NewPhased(res, cFires(g))
		if err != nil {
			return nil, refState{}, err
		}
		run, tokensOn = eng.RunPeriod, eng.TokensOn
	} else {
		eng, err := runtime.New(res, cFires(g))
		if err != nil {
			return nil, refState{}, err
		}
		run, tokensOn = eng.RunPeriod, eng.TokensOn
	}
	times := make([]float64, n)
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for p := range times {
		t0 := time.Now()
		err := run()
		times[p] = float64(time.Since(t0))
		if err != nil {
			return nil, refState{}, err
		}
	}
	goruntime.ReadMemStats(&m1)
	*allocBytes += m1.TotalAlloc - m0.TotalAlloc
	*mallocs += m1.Mallocs - m0.Mallocs
	return times, engineState(g, tokensOn), nil
}

func runWorkload(e *env) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{}
	cc, err := exec.LookPath("cc")
	if err != nil {
		cc = ""
		out.rows = append(out.rows, "cc not found: the gen_c metrics are skipped and the generated C is not run")
	}
	syss, setupS, problems, err := setupTimes(runSetups, func(rep int) ([]*runSys, string, error) {
		return runSetup(ctx, e.tr, filepath.Join(e.work, fmt.Sprintf("setup%d", rep)), cc, rep)
	})
	if err != nil {
		return nil, err
	}
	for _, p := range problems {
		out.mismatch("determinism: %s", p)
	}

	var classes []*runClass
	for _, s := range syss {
		for _, ex := range executors {
			if ex.native && cc == "" {
				continue
			}
			classes = append(classes, &runClass{sys: s, ex: ex})
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	var (
		engAlloc   uint64
		engPeriods int64
		seqMalloc  uint64
		seqPeriods int64
	)
	// The engines allocate on every firing. With the collector paced by
	// allocation, a collection would start inside some samples and not
	// others, and would run on the core a threaded sample needs. So the
	// loop collects between samples instead, once the heap passes
	// loopHeap, and samples time only their own work; alloc_kb_per_op and
	// runtime.allocs_per_period still count every engine allocation.
	restoreGC := pauseGC()
	start := time.Now()
	deadline := start.Add(e.seconds)
loop:
	for {
		for _, i := range rng.Perm(len(classes)) {
			if !time.Now().Before(deadline) {
				break loop
			}
			collectAbove(loopHeap)
			c := classes[i]
			out.attempted++
			var mallocs uint64
			times, st, err := c.sample(ctx, e.tr, out.attempted, &engAlloc, &mallocs)
			if err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s on %s: %v\n", c.sys.name, c.ex.name, err)
				continue
			}
			if !c.ex.native {
				engPeriods += int64(len(times))
				if !c.ex.par {
					seqMalloc += mallocs
					seqPeriods += int64(len(times))
				}
			}
			if !c.have {
				c.first, c.have = st, true
			} else if err := sameState(st, c.first); err != nil {
				out.mismatch("%s on %s: run differs from the first run: %v", c.sys.name, c.ex.name, err)
			}
			c.periods = append(c.periods, times...)
			var sum float64
			for _, t := range times {
				sum += t
			}
			c.visitMean = append(c.visitMean, sum/float64(len(times)))
			c.visitP99 = append(c.visitP99, quantile(times, 0.99))
		}
	}
	elapsed := time.Since(start)
	restoreGC()

	refs := map[string]refState{}
	for _, c := range classes {
		if !c.have {
			out.mismatch("%s on %s: no successful run in %v", c.sys.name, c.ex.name, e.seconds)
			continue
		}
		n := c.sys.periodsFor(c.ex)
		key := fmt.Sprintf("%s/%d", c.sys.name, n)
		ref, ok := refs[key]
		if !ok {
			if ref, err = reference(c.sys.seq.Graph, n); err != nil {
				return nil, err
			}
			refs[key] = ref
		}
		if err := sameState(c.first, ref); err != nil {
			out.mismatch("%s on %s after %d periods: %v", c.sys.name, c.ex.name, n, err)
		}
	}

	layers := newLayers()
	perEx := map[string][]float64{}
	var p50s, p99s, rates, ratios []float64
	var seqCells, parCells, bmlb, phases int64
	for _, s := range syss {
		seqCells += s.seq.Best.Total
		parCells += s.par.Segmented.Total
		bmlb += s.bmlb
		phases += int64(s.par.Partition.NumPhases)
		ratios = append(ratios, float64(s.par.Segmented.Total)/float64(s.seq.Best.Total))
		setLayer(layers, s.name+".cells", float64(s.seq.Best.Total))
		setLayer(layers, s.name+".p2_cells", float64(s.par.Segmented.Total))
	}
	for _, c := range classes {
		med, p99 := quantile(c.periods, 0.5), median(c.visitP99)
		p50s = append(p50s, med/1e6)
		rates = append(rates, float64(c.sys.firings)*1e9/median(c.visitMean))
		if !c.ex.par {
			// The P=2 tails are set by how soon the OS wakes a barrier's
			// sleeping thread, which any other load on the machine moves
			// severalfold; their medians still enter p50_ms.
			p99s = append(p99s, p99/1e6)
		}
		perFiring := med / float64(c.sys.firings)
		perEx[c.ex.metric] = append(perEx[c.ex.metric], perFiring)
		setLayer(layers, c.sys.name+"."+c.ex.metric, perFiring)
		out.rows = append(out.rows, rowf("system %-12s %-9s firings/period %6d  periods/sample %5d  samples %4d  periods %6d  p50 %10.1f ns/period  p99 %10.1f  %7.2f ns/firing",
			c.sys.name, c.ex.name, c.sys.firings, c.sys.periodsFor(c.ex), len(c.visitMean), len(c.periods), med, p99, perFiring))
	}
	for _, ex := range executors {
		setLayer(layers, ex.metric, geomean(perEx[ex.metric]))
	}
	for _, s := range syss {
		out.rows = append(out.rows, rowf("system %-12s cells %6d  p2 cells %6d (%.2fx)  phases %3d  bmlb %6d",
			s.name, s.seq.Best.Total, s.par.Segmented.Total, float64(s.par.Segmented.Total)/float64(s.seq.Best.Total), s.par.Partition.NumPhases, s.bmlb))
	}
	out.rows = append(out.rows, rowf("samples %d in %.2fs", out.attempted, elapsed.Seconds()))
	out.e2e = map[string]metric{
		"setup_s":         {setupS, "s"},
		"p50_ms":          {geomean(p50s), "ms"},
		"p99_ms":          {geomean(p99s), "ms"},
		"ops_per_s":       {geomean(rates), "1/s"},
		"alloc_kb_per_op": {float64(engAlloc) / 1024 / float64(max(engPeriods, 1)), "KB"},
		"cells_per_bmlb":  {float64(seqCells+parCells) / float64(2*max(bmlb, 1)), "ratio"},
	}

	fillPassLayers(layers, e.tr, 2*len(syss)*runSetups)
	lt := e.tr.totals()
	setLayer(layers, "codegen.ms", ms(lt.self["codegen"])/runSetups)
	setLayer(layers, "cc.build_ms", ms(lt.self["cc"])/runSetups)
	setLayer(layers, "partition.phases", float64(phases))
	setLayer(layers, "segalloc.cells", float64(parCells))
	setLayer(layers, "shared_cells", float64(seqCells))
	setLayer(layers, "runtime.allocs_per_period", float64(seqMalloc)/float64(max(seqPeriods, 1)))
	setLayer(layers, "parallel_cells_ratio_p2", geomean(ratios))
	out.layers = layers
	return out, nil
}
