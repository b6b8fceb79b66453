package pass

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// fullGrid is the 2 strategies × 4 loopings × 3 single-allocator grid used
// throughout the planner tests: 24 points over 8 distinct schedules.
func fullGrid() []Options {
	var pts []Options
	for _, strat := range []OrderStrategy{APGAN, RPMC} {
		for _, la := range []LoopAlg{SDPPOLoops, DPPOLoops, ChainPreciseLoops, FlatLoops} {
			for _, a := range []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart, alloc.BestFitDuration} {
				pts = append(pts, Options{
					Strategy:   strat,
					Looping:    la,
					Allocators: []alloc.Strategy{a},
					Verify:     true,
				})
			}
		}
	}
	return pts
}

func planGraphs() []*sdf.Graph {
	return []*sdf.Graph{
		systems.CDDAT(),
		systems.SatelliteReceiver(),
		systems.OneSidedFilterbank(3, systems.Ratio23),
		systems.Homogeneous(3, 3),
	}
}

// TestPlanMatchesDirectCompile: the shared grid plan returns, point for
// point, the result of a one-point plan of that point alone (CompileContext).
func TestPlanMatchesDirectCompile(t *testing.T) {
	for _, g := range planGraphs() {
		pts := fullGrid()
		outs, err := RunGridOutcomes(context.Background(), g, pts, PlanConfig{})
		if err != nil {
			t.Fatalf("%s: plan: %v", g.Name, err)
		}
		if len(outs) != len(pts) {
			t.Fatalf("%s: %d outcomes for %d points", g.Name, len(outs), len(pts))
		}
		for i, o := range outs {
			single, serr := CompileContext(context.Background(), g, pts[i])
			if serr != nil || o.Err != nil {
				t.Fatalf("%s pt %d: one-point err %v, grid err %v", g.Name, i, serr, o.Err)
			}
			if !reflect.DeepEqual(single, o.Result) {
				t.Errorf("%s pt %d (%v/%v): grid result differs from the one-point plan",
					g.Name, i, pts[i].Strategy, pts[i].Looping)
			}
		}
	}
}

func TestPlanStatsDedup(t *testing.T) {
	g := systems.SatelliteReceiver()
	p, err := NewPlan(g, fullGrid(), PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[Kind][2]int{ // kind -> {nodes, naive}
		KindRepetitions: {1, 24},
		KindOrder:       {2, 24},
		KindSchedule:    {8, 24},
		KindLifetimes:   {8, 24},
		KindAlloc:       {24, 24},
		KindPartition:   {0, 0}, // fullGrid requests no partitioning
		KindSegalloc:    {0, 0},
		KindAssemble:    {24, 24},
	}
	for _, kc := range p.Stats() {
		w, ok := want[kc.Kind]
		if !ok {
			t.Fatalf("unexpected kind %v in stats", kc.Kind)
		}
		if kc.Nodes != w[0] || kc.Naive != w[1] {
			t.Errorf("%v: nodes/naive = %d/%d, want %d/%d", kc.Kind, kc.Nodes, kc.Naive, w[0], w[1])
		}
		delete(want, kc.Kind)
	}
	if len(want) != 0 {
		t.Errorf("stats missing kinds: %v", want)
	}
	nodes, naive := p.NodeCount()
	if nodes != 1+2+8+8+24+24 || naive != 6*24 {
		t.Errorf("NodeCount = %d/%d", nodes, naive)
	}
}

func TestPlanSharedAllocatorLeaves(t *testing.T) {
	// Two points differing only in Verify share every non-assemble node,
	// including the default ffdur+ffstart allocator pair.
	g := systems.CDDAT()
	p, err := NewPlan(g, []Options{{}, {Verify: true}}, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kc := range p.Stats() {
		switch kc.Kind {
		case KindRepetitions, KindOrder, KindSchedule, KindLifetimes:
			if kc.Nodes != 1 {
				t.Errorf("%v: %d nodes, want 1", kc.Kind, kc.Nodes)
			}
		case KindAlloc:
			if kc.Nodes != 2 || kc.Naive != 4 {
				t.Errorf("alloc nodes/naive = %d/%d, want 2/4", kc.Nodes, kc.Naive)
			}
		case KindPartition, KindSegalloc:
			if kc.Nodes != 0 {
				t.Errorf("%v: %d nodes, want 0 (no partitioned points)", kc.Kind, kc.Nodes)
			}
		case KindAssemble:
			if kc.Nodes != 2 {
				t.Errorf("assemble nodes = %d, want 2", kc.Nodes)
			}
		default:
			t.Fatalf("unexpected kind %v", kc.Kind)
		}
	}
	outs := must2(p.Run(context.Background()), t)
	if !reflect.DeepEqual(outs[0].Allocations, outs[1].Allocations) {
		t.Error("shared allocator leaves produced different allocations")
	}
}

func must2(outs []Outcome, t *testing.T) []*Result {
	t.Helper()
	res := make([]*Result, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("point %d: %v", i, o.Err)
		}
		res[i] = o.Result
	}
	return res
}

func TestPlanCustomOrderSharing(t *testing.T) {
	g := systems.CDDAT()
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalSort(q)
	if err != nil {
		t.Fatal(err)
	}
	pts := []Options{
		{Strategy: CustomOrder, Order: order, Looping: SDPPOLoops},
		{Strategy: CustomOrder, Order: order, Looping: DPPOLoops},
		{Strategy: APGAN, Looping: SDPPOLoops},
	}
	p, err := NewPlan(g, pts, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kc := range p.Stats() {
		if kc.Kind == KindOrder && kc.Nodes != 2 {
			t.Errorf("order nodes = %d, want 2 (shared custom + apgan)", kc.Nodes)
		}
		if kc.Kind == KindSchedule && kc.Nodes != 3 {
			t.Errorf("schedule nodes = %d, want 3", kc.Nodes)
		}
	}
	res := must2(p.Run(context.Background()), t)
	for i, r := range res[:2] {
		if !reflect.DeepEqual(r.Order, order) {
			t.Errorf("point %d lost the custom order", i)
		}
	}
}

func TestPlanCyclicFallback(t *testing.T) {
	// Multirate feedback with delay below one period's consumption: the back
	// edge still constrains precedence, keeping {A, B} strongly connected.
	g := sdf.New("mrc")
	src := g.AddActor("src")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(src, a, 2, 1, 0)
	g.AddEdge(a, b, 3, 2, 0)
	g.AddEdge(b, a, 2, 3, 4)
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	if g.IsAcyclic(q) {
		t.Fatal("test graph should be cyclic")
	}
	pts := []Options{
		{Strategy: APGAN, Verify: true},
		{Strategy: RPMC, Verify: true},
	}
	p, err := NewPlan(g, pts, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if len(st) != 1 || st[0].Kind != KindAssemble || st[0].Nodes != 2 || st[0].Naive != 2 {
		t.Fatalf("cyclic stats = %+v, want single assemble 2/2", st)
	}
	outs := p.Run(context.Background())
	for i, o := range outs {
		single, serr := CompileContext(context.Background(), g, pts[i])
		if serr != nil || o.Err != nil {
			t.Fatalf("pt %d: one-point err %v, grid err %v", i, serr, o.Err)
		}
		if !reflect.DeepEqual(single, o.Result) {
			t.Errorf("pt %d: cyclic fallback differs from the one-point plan", i)
		}
	}
}

func TestPlanErrorPropagation(t *testing.T) {
	g := systems.CDDAT()
	bad := Options{Strategy: CustomOrder, Order: []sdf.ActorID{0}} // wrong length
	pts := []Options{bad, {Strategy: APGAN}, bad}
	outs, err := RunGridOutcomes(context.Background(), g, pts, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := Compile(g, bad)
	if wantErr == nil {
		t.Fatal("expected a one-point compile of the bad point to fail")
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err == nil || outs[i].Err.Error() != wantErr.Error() {
			t.Errorf("point %d err = %v, want %v", i, outs[i].Err, wantErr)
		}
	}
	if outs[1].Err != nil || outs[1].Result == nil {
		t.Errorf("healthy point poisoned by sibling failure: %v", outs[1].Err)
	}

	// Fail-fast wrapper mirrors the sequential loop: lowest failing index.
	if _, err := RunGrid(context.Background(), g, pts, PlanConfig{}); err == nil ||
		err.Error() != wantErr.Error() {
		t.Errorf("RunGrid err = %v, want %v", err, wantErr)
	}
}

func TestPlanInconsistentGraphFailsAtPlanTime(t *testing.T) {
	g := sdf.New("inconsistent")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 2, 3, 0)
	g.AddEdge(a, b, 1, 1, 0)
	if _, err := NewPlan(g, []Options{{}}, PlanConfig{}); err == nil {
		t.Fatal("expected plan over an inconsistent graph to fail")
	}
}

func TestPlanCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := RunGridOutcomes(ctx, systems.CDDAT(), fullGrid(), PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err == nil || !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("point %d: err = %v, want context.Canceled", i, o.Err)
		}
		if !strings.Contains(o.Err.Error(), "core: aborted before") {
			t.Errorf("point %d: err %q lost the stage-abort spelling", i, o.Err)
		}
	}
}

func TestPlanEvents(t *testing.T) {
	var (
		mu     sync.Mutex
		enters = map[Key]int{}
		leaves = map[Key]int{}
		kinds  = map[Kind]int{}
	)
	cfg := PlanConfig{GraphKey: "satrec", OnEvent: func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		if e.Enter {
			enters[e.Key]++
			kinds[e.Kind]++
		} else {
			leaves[e.Key]++
		}
	}}
	p, err := NewPlan(systems.SatelliteReceiver(), fullGrid(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	must2(p.Run(context.Background()), t)
	for k, n := range enters {
		if n != 1 {
			t.Errorf("node %s entered %d times, want exactly 1", k, n)
		}
		if leaves[k] != 1 {
			t.Errorf("node %s: %d leave events, want 1", k, leaves[k])
		}
	}
	for _, kc := range p.Stats() {
		if kinds[kc.Kind] != kc.Nodes {
			t.Errorf("%v: %d enter events, stats say %d nodes", kc.Kind, kinds[kc.Kind], kc.Nodes)
		}
	}
	for k := range enters {
		if !strings.Contains(string(k), "satrec") && !strings.Contains(string(k), "|g:satrec") {
			// Only repetitions/order keys embed the graph key directly; the
			// rest inherit it through their parent prefix.
			t.Errorf("node key %q does not carry the configured graph key", k)
		}
	}
}

func TestKindStringsAndKinds(t *testing.T) {
	want := map[Kind]string{
		KindRepetitions: "repetitions",
		KindOrder:       "order",
		KindSchedule:    "schedule",
		KindLifetimes:   "lifetimes",
		KindAlloc:       "alloc",
		KindPartition:   "partition",
		KindSegalloc:    "segalloc",
		KindAssemble:    "assemble",
	}
	ks := Kinds()
	if len(ks) != len(want) {
		t.Fatalf("Kinds() has %d entries, want %d", len(ks), len(want))
	}
	for _, k := range ks {
		if k.String() != want[k] {
			t.Errorf("Kind %d String = %q, want %q", int(k), k.String(), want[k])
		}
	}
}

func TestBetterAllocNameTieBreak(t *testing.T) {
	mk := func(total int64) *alloc.Allocation { return &alloc.Allocation{Total: total} }
	if !betterAlloc(Allocation{Strategy: alloc.FirstFitStart, Alloc: mk(5)}, nil, 0) {
		t.Error("first candidate must always win")
	}
	if !betterAlloc(Allocation{Strategy: alloc.FirstFitStart, Alloc: mk(4)}, mk(5), alloc.FirstFitDuration) {
		t.Error("smaller total must win")
	}
	// Equal totals: "ffdur" < "ffstart" regardless of which came first.
	if !betterAlloc(Allocation{Strategy: alloc.FirstFitDuration, Alloc: mk(5)}, mk(5), alloc.FirstFitStart) {
		t.Error("ffdur should displace ffstart on equal totals")
	}
	if betterAlloc(Allocation{Strategy: alloc.FirstFitStart, Alloc: mk(5)}, mk(5), alloc.FirstFitDuration) {
		t.Error("ffstart must not displace ffdur on equal totals")
	}
}

// TestPlanOnOutcome: the streaming hook fires exactly once per point — on
// success, on propagated upstream failure, and on the cyclic fallback — and
// streams the same outcomes Run returns.
func TestPlanOnOutcome(t *testing.T) {
	collect := func(n int) (func(int, Outcome), []*Outcome, *sync.Mutex) {
		var mu sync.Mutex
		got := make([]*Outcome, n)
		return func(i int, o Outcome) {
			mu.Lock()
			defer mu.Unlock()
			if got[i] != nil {
				t.Errorf("point %d: OnOutcome fired twice", i)
			}
			got[i] = &o
		}, got, &mu
	}
	check := func(got []*Outcome, outs []Outcome) {
		t.Helper()
		for i, o := range outs {
			if got[i] == nil {
				t.Fatalf("point %d: OnOutcome never fired", i)
			}
			if got[i].Result != o.Result || !errors.Is(got[i].Err, o.Err) {
				t.Errorf("point %d: streamed outcome differs from returned", i)
			}
		}
	}

	// Mixed success/failure grid: the bad custom order fails points 0 and 2
	// through a shared node; point 1 succeeds.
	g := systems.CDDAT()
	bad := Options{Strategy: CustomOrder, Order: []sdf.ActorID{0}}
	pts := []Options{bad, {Strategy: APGAN}, bad}
	hook, got, _ := collect(len(pts))
	outs, err := RunGridOutcomes(context.Background(), g, pts, PlanConfig{OnOutcome: hook})
	if err != nil {
		t.Fatal(err)
	}
	check(got, outs)
	if got[0].Err == nil || got[1].Err != nil {
		t.Errorf("streamed errors wrong: %v / %v", got[0].Err, got[1].Err)
	}

	// Cyclic fallback path.
	cg := sdf.New("mrc")
	src := cg.AddActor("src")
	a := cg.AddActor("A")
	b := cg.AddActor("B")
	cg.AddEdge(src, a, 2, 1, 0)
	cg.AddEdge(a, b, 3, 2, 0)
	cg.AddEdge(b, a, 2, 3, 4)
	cpts := []Options{{Strategy: APGAN}, {Strategy: RPMC}}
	hook2, got2, _ := collect(len(cpts))
	outs2, err := RunGridOutcomes(context.Background(), cg, cpts, PlanConfig{OnOutcome: hook2})
	if err != nil {
		t.Fatal(err)
	}
	check(got2, outs2)
}
