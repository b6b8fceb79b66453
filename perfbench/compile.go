package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/pass"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/sim"
	"repro/internal/systems"
)

// randomSizes are the actor counts of the seeded random graphs the compile
// workload adds to the fixed systems, randomPerSize graphs of each. The sizes
// are fixed so that the seed changes topology and rates but not the scale of
// the work, and two graphs per size halve how much one seed's topologies
// move the latency tail.
var randomSizes = []int{50, 100, 150, 200, 250, 300}

const randomPerSize = 2

// compileSetups is how many times set-up runs. A set-up generates the inputs
// and compiles each one once, about a second of work, so that its median is
// as steady as the loop's figures and work a change moves out of the timed
// compiles into set-up shows in setup_s.
const compileSetups = 3

// compileInput is one graph of the compile workload.
type compileInput struct {
	name   string
	g      *sdf.Graph
	cyclic bool
	// fixed marks the seed-independent inputs (Table 1, CDDAT, the echo
	// canceller); only they enter cells_per_bmlb and shared_cells, so those
	// figures are exact and the same for every seed.
	fixed bool
	bmlb  int64
}

// sdfcOptions is sdfc's default configuration: RPMC order, SDPPO looping,
// ffdur and ffstart allocators, token-level verification on.
func sdfcOptions() core.Options {
	return core.Options{Strategy: core.RPMC, Looping: core.SDPPOLoops, Verify: true}
}

// parseText renders g as .sdf text and parses it back, which is how a user
// hands a graph to the compiler.
func parseText(g *sdf.Graph) (*sdf.Graph, error) {
	text, err := sdfio.CanonicalString(g)
	if err != nil {
		return nil, err
	}
	return sdfio.Parse(strings.NewReader(text))
}

// fixedSystems are the seed-independent inputs: the 16 Table 1 systems,
// CDDAT and the echo canceller (the cyclic path), parsed back from text.
func fixedSystems() ([]*sdf.Graph, error) {
	var out []*sdf.Graph
	for _, src := range append(systems.Table1Systems(), systems.CDDAT(), systems.EchoCanceller()) {
		g, err := parseText(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", src.Name, err)
		}
		out = append(out, g)
	}
	return out, nil
}

func compileInputs(seed int64) ([]compileInput, error) {
	gs, err := fixedSystems()
	if err != nil {
		return nil, err
	}
	fixed := len(gs)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < randomPerSize*len(randomSizes); i++ {
		n := randomSizes[i%len(randomSizes)]
		src := randsdf.Graph(rng, randsdf.Config{Actors: n})
		src.Name = fmt.Sprintf("rand%d_%d", n, i/len(randomSizes))
		g, err := parseText(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", src.Name, err)
		}
		gs = append(gs, g)
	}
	ins := make([]compileInput, 0, len(gs))
	for i, g := range gs {
		q, err := g.Repetitions()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name, err)
		}
		bmlb, err := g.BMLB()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", g.Name, err)
		}
		ins = append(ins, compileInput{name: g.Name, g: g, cyclic: !g.IsAcyclic(q), fixed: i < fixed, bmlb: bmlb})
	}
	return ins, nil
}

// compileOnce is one operation of the compile workload. Untraced, it is the
// public entry point sdfc uses; traced, the same inputs and options run as a
// one-point pass.Plan so every pass gets a span, and the token-level check
// the compile would run inside assembly runs as its own sim span.
func compileOnce(ctx context.Context, tr *tracer, req int64, in compileInput) (*core.Result, error) {
	opts := sdfcOptions()
	if tr == nil {
		if in.cyclic {
			return core.CompileGeneralContext(ctx, in.g, opts)
		}
		return core.CompileContext(ctx, in.g, opts)
	}
	root := tr.begin("compile", 0, req)
	defer tr.end(root)
	if !in.cyclic {
		// The cyclic fallback verifies an expanded schedule inside its
		// assembly; only acyclic compiles can hoist the check out.
		opts.Verify = false
	}
	_, outs, err := runPlan(ctx, tr, root, req, in.g, []pass.Options{opts}, nil)
	if err != nil {
		return nil, err
	}
	if outs[0].Err != nil {
		return nil, outs[0].Err
	}
	res := outs[0].Result
	if !in.cyclic {
		id := tr.begin("sim", root, req)
		err = sim.Run(res.Schedule, res.Repetitions, res.Intervals, res.Best, 2)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("verification failed: %w", err)
		}
	}
	return res, nil
}

// checkCompiled runs the invariant oracle over one result. check.Pipeline
// covers single appearance schedules; the cyclic path's schedule is not one,
// so it gets the oracles that apply to any schedule: the repetitions vector,
// the packing, and the shared-memory engine against the FIFO reference
// interpreter.
func checkCompiled(res *core.Result, cyclic bool) error {
	if !cyclic {
		return check.Pipeline(res, check.Options{})
	}
	if err := check.Repetitions(res.Graph, res.Repetitions); err != nil {
		return err
	}
	if err := check.Allocation(res.Intervals, res.Best); err != nil {
		return err
	}
	return check.Runtime(res)
}

// compileSetup is the state the timed loop starts from: the inputs and each
// input's first result, which the oracles check and every later compile of
// the input must repeat.
type compileSetup struct {
	ins   []compileInput
	first []*core.Result
}

func compileWorkload(e *env) (*outcome, error) {
	ctx := context.Background()
	st, setupS, problems, err := setupTimes(compileSetups, func(int) (*compileSetup, string, error) {
		ins, err := compileInputs(e.seed)
		if err != nil {
			return nil, "", err
		}
		st := &compileSetup{ins: ins, first: make([]*core.Result, len(ins))}
		var fp strings.Builder
		for i, in := range ins {
			if st.first[i], err = compileOnce(ctx, nil, 0, in); err != nil {
				return nil, "", fmt.Errorf("%s: %w", in.name, err)
			}
			fmt.Fprintf(&fp, "%s:%d:%d:%d:%d ", in.name, in.g.NumActors(), in.g.NumEdges(), in.bmlb, st.first[i].Metrics.SharedTotal)
		}
		return st, fp.String(), nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	for _, p := range problems {
		out.mismatch("determinism: %s", p)
	}
	ins, first := st.ins, st.first

	rng := rand.New(rand.NewSource(e.seed ^ 0x5eed))
	perInput := make([][]float64, len(ins)) // ms
	var (
		all      []float64 // ms
		busy     time.Duration
		ms0, ms1 runtime.MemStats
		alloced  uint64
	)
	deadline := time.Now().Add(e.seconds)
loop:
	for {
		for _, i := range rng.Perm(len(ins)) {
			if !time.Now().Before(deadline) {
				break loop
			}
			// sdfc compiles one graph per process, so every compile starts
			// from a collected heap rather than paying for the garbage of
			// whichever inputs the seed's order put before it.
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			res, err := compileOnce(ctx, e.tr, out.attempted+1, ins[i])
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			alloced += ms1.TotalAlloc - ms0.TotalAlloc
			busy += d
			out.attempted++
			if err != nil {
				out.failed++
				fmt.Printf("compile %s failed: %v\n", ins[i].name, err)
				continue
			}
			all = append(all, ms(d))
			perInput[i] = append(perInput[i], ms(d))
			if got, want := res.Metrics.SharedTotal, first[i].Metrics.SharedTotal; got != want {
				out.mismatch("%s: shared cells %d, first compile gave %d", ins[i].name, got, want)
			}
		}
	}

	var fixedCells, fixedBMLB, allCells, intervals int64
	var medians []float64
	for i, in := range ins {
		res := first[i]
		if err := checkCompiled(res, in.cyclic); err != nil {
			out.mismatch("%s: %v", in.name, err)
		}
		allCells += res.Metrics.SharedTotal
		intervals += int64(len(res.Intervals))
		if in.fixed {
			fixedCells += res.Metrics.SharedTotal
			fixedBMLB += in.bmlb
		}
		med := quantile(perInput[i], 0.5)
		medians = append(medians, med)
		out.rows = append(out.rows, rowf("input %-14s actors %4d  median %9.3f ms  n %5d  shared cells %8d  bmlb %8d",
			in.name, in.g.NumActors(), med, len(perInput[i]), res.Metrics.SharedTotal, in.bmlb))
	}
	for i, in := range ins {
		if len(perInput[i]) == 0 {
			out.mismatch("%s: never compiled in %v", in.name, e.seconds)
		}
	}
	n := float64(len(all))
	out.rows = append(out.rows, rowf("compiles %d taking %.2fs; p99 rests on %d samples above it", len(all), busy.Seconds(), len(all)/100))
	out.e2e = map[string]metric{
		"setup_s":         {setupS, "s"},
		"p50_ms":          {geomean(medians), "ms"},
		"p99_ms":          {quantile(all, 0.99), "ms"},
		"ops_per_s":       {n / busy.Seconds(), "1/s"},
		"alloc_kb_per_op": {float64(alloced) / 1024 / max(n, 1), "KB"},
		"cells_per_bmlb":  {float64(fixedCells) / float64(max(fixedBMLB, 1)), "ratio"},
	}
	out.layers = newLayers()
	fillPassLayers(out.layers, e.tr, len(all))
	setLayer(out.layers, "alloc.cells", float64(allCells))
	setLayer(out.layers, "lifetimes.intervals", float64(intervals))
	setLayer(out.layers, "shared_cells", float64(fixedCells))
	return out, nil
}
