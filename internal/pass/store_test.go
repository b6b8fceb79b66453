package pass

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// mapStore is an in-memory Store for tests: the same contract as
// internal/nodestore without the disk.
type mapStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	gets int
	hits int
	puts int
}

func newMapStore() *mapStore { return &mapStore{m: map[string][]byte{}} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	data, ok := s.m[key]
	if ok {
		s.hits++
	}
	return data, ok
}

func (s *mapStore) Put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; ok {
		return
	}
	s.puts++
	s.m[key] = append([]byte(nil), data...)
}

// garbageStore answers every Get with bytes that cannot decode, modeling a
// store whose payloads survived the checksum but not the schema: the plan
// must fall back to executing, never fail, never misdecode.
type garbageStore struct{}

func (garbageStore) Get(key string) ([]byte, bool) { return []byte{0xff, 0x01, 0x7f}, true }
func (garbageStore) Put(key string, data []byte)   {}

// renamed returns a structural copy of g with every actor renamed.
func renamed(g *sdf.Graph) *sdf.Graph {
	out := sdf.New(g.Name + "-renamed")
	for _, a := range g.Actors() {
		out.AddActor("x_" + a.Name)
	}
	for _, e := range g.Edges() {
		id := out.AddEdge(e.Src, e.Dst, e.Prod, e.Cons, e.Delay)
		out.SetWords(id, e.Words)
	}
	return out
}

func TestStoreKeysNameInvariant(t *testing.T) {
	g := systems.SatelliteReceiver()
	a, b := newStoreKeys(g), newStoreKeys(renamed(g))
	if a.repKey() != b.repKey() {
		t.Error("repetitions store key depends on actor names")
	}
	if a.orderKey(RPMC, nil) != b.orderKey(RPMC, nil) {
		t.Error("order store key depends on actor names")
	}
	oh := []byte("orderhash")
	if a.schedKey(oh, SDPPOLoops) != b.schedKey(oh, SDPPOLoops) {
		t.Error("schedule store key depends on actor names")
	}
	if a.lifeKey(oh) != b.lifeKey(oh) {
		t.Error("lifetimes store key depends on actor names")
	}
}

func TestStoreKeysProjections(t *testing.T) {
	base := systems.SatelliteReceiver()

	delayed := base.Clone()
	// Clone copies edges; perturb a delay via rebuild (sdf has no edge
	// mutator for delay), so build a copy with one delay changed.
	delayed = sdf.New(base.Name)
	for _, a := range base.Actors() {
		delayed.AddActor(a.Name)
	}
	for _, e := range base.Edges() {
		d := e.Delay
		if e.ID == 0 {
			d += 3
		}
		id := delayed.AddEdge(e.Src, e.Dst, e.Prod, e.Cons, d)
		delayed.SetWords(id, e.Words)
	}

	worded := base.Clone()
	worded.SetWords(0, 7)

	b, dl, w := newStoreKeys(base), newStoreKeys(delayed), newStoreKeys(worded)
	oh := []byte("orderhash")

	// Delay edits: q is delay-blind, everything from ordering down reads it.
	if b.repKey() != dl.repKey() {
		t.Error("repetitions key changed on a delay edit")
	}
	if b.orderKey(RPMC, nil) == dl.orderKey(RPMC, nil) {
		t.Error("order key survived a delay edit (RPMC reads delays)")
	}
	if b.schedKey(oh, SDPPOLoops) == dl.schedKey(oh, SDPPOLoops) {
		t.Error("schedule key survived a delay edit (loop DPs read delays)")
	}

	// Words edits: only FlatLoops' DP cost and the lifetimes sizes read
	// Words; q, ordering, and the non-flat loop DPs are words-blind.
	if b.repKey() != w.repKey() || b.orderKey(RPMC, nil) != w.orderKey(RPMC, nil) {
		t.Error("repetitions/order keys changed on a words edit")
	}
	if b.schedKey(oh, SDPPOLoops) != w.schedKey(oh, SDPPOLoops) {
		t.Error("SDPPO schedule key changed on a words edit (SDPPO is words-blind)")
	}
	if b.schedKey(oh, FlatLoops) == w.schedKey(oh, FlatLoops) {
		t.Error("flat schedule key survived a words edit (flat DP cost is BufMem)")
	}
	if b.lifeKey(oh) == w.lifeKey(oh) {
		t.Error("lifetimes key survived a words edit")
	}

	// Chaining: a different upstream hash yields a different key.
	if b.schedKey([]byte("other"), SDPPOLoops) == b.schedKey(oh, SDPPOLoops) {
		t.Error("schedule key ignores the order hash")
	}
	if allocStoreKey([]byte("a"), alloc.FirstFitDuration) == allocStoreKey([]byte("b"), alloc.FirstFitDuration) {
		t.Error("alloc key ignores the lifetimes hash")
	}
	if allocStoreKey(oh, alloc.FirstFitDuration) == allocStoreKey(oh, alloc.FirstFitStart) {
		t.Error("alloc key ignores the strategy")
	}
}

func TestStoreKeyCustomOrder(t *testing.T) {
	g := systems.CDDAT()
	sk := newStoreKeys(g)
	ord := make([]sdf.ActorID, g.NumActors())
	for i := range ord {
		ord[i] = sdf.ActorID(i)
	}
	rev := make([]sdf.ActorID, len(ord))
	for i := range rev {
		rev[i] = ord[len(ord)-1-i]
	}
	if sk.orderKey(CustomOrder, ord) == sk.orderKey(CustomOrder, rev) {
		t.Error("custom order key ignores the actor list")
	}
	if sk.orderKey(RPMC, nil) == sk.orderKey(APGAN, nil) {
		t.Error("order key ignores the strategy")
	}
}

func TestKindTagPanicsOnAssemble(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("kindTag(KindAssemble) should panic: assembled results are never stored")
		}
	}()
	kindTag(KindAssemble)
}

// TestCodecRoundTrip runs the real passes on a real system and round-trips
// every artifact through its store encoding, checking semantic identity —
// including the pointer identity decodeAlloc must maintain into the
// lifetimes artifact.
func TestCodecRoundTrip(t *testing.T) {
	for _, g := range planGraphs() {
		rep, err := RunRepetitions(g)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := decodeRep(g, encodeRep(rep))
		if err != nil || !reflect.DeepEqual(gotRep, rep) {
			t.Fatalf("%s: repetitions round trip: %v (%v vs %v)", g.Name, err, gotRep, rep)
		}

		for _, strat := range []OrderStrategy{APGAN, RPMC} {
			ord, err := RunOrder(g, rep, strat, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotOrd, err := decodeOrder(g, encodeOrder(ord))
			if err != nil || !reflect.DeepEqual(gotOrd, ord) {
				t.Fatalf("%s/%v: order round trip: %v", g.Name, strat, err)
			}

			for _, la := range []LoopAlg{SDPPOLoops, DPPOLoops, ChainPreciseLoops, FlatLoops} {
				ls, err := RunSchedule(g, rep, ord, la)
				if err != nil {
					t.Fatal(err)
				}
				gotLs, err := decodeSched(g, encodeSched(ls))
				if err != nil {
					t.Fatalf("%s/%v/%v: schedule decode: %v", g.Name, strat, la, err)
				}
				if gotLs.DPCost != ls.DPCost || gotLs.Schedule.String() != ls.Schedule.String() {
					t.Fatalf("%s/%v/%v: schedule round trip mismatch: %q vs %q",
						g.Name, strat, la, gotLs.Schedule.String(), ls.Schedule.String())
				}
				if !reflect.DeepEqual(gotLs.Schedule.Body, ls.Schedule.Body) {
					t.Fatalf("%s/%v/%v: schedule term tree differs structurally", g.Name, strat, la)
				}

				lf, err := RunLifetimes(rep, ls)
				if err != nil {
					t.Fatal(err)
				}
				gotLf, err := decodeLife(g, gotLs, encodeLife(lf))
				if err != nil {
					t.Fatalf("%s/%v/%v: lifetimes decode: %v", g.Name, strat, la, err)
				}
				if !reflect.DeepEqual(gotLf.Intervals, lf.Intervals) {
					t.Fatalf("%s/%v/%v: lifetime intervals differ after round trip", g.Name, strat, la)
				}

				al, err := RunAlloc(lf, alloc.FirstFitDuration)
				if err != nil {
					t.Fatal(err)
				}
				data, err := encodeAlloc(lf, al)
				if err != nil {
					t.Fatal(err)
				}
				gotAl, err := decodeAlloc(gotLf, alloc.FirstFitDuration, data)
				if err != nil {
					t.Fatalf("%s/%v/%v: alloc decode: %v", g.Name, strat, la, err)
				}
				if gotAl.Alloc.Total != al.Alloc.Total || len(gotAl.Alloc.Placements) != len(al.Alloc.Placements) {
					t.Fatalf("%s/%v/%v: alloc round trip totals differ", g.Name, strat, la)
				}
				for i, p := range gotAl.Alloc.Placements {
					want := al.Alloc.Placements[i]
					if p.Offset != want.Offset || !reflect.DeepEqual(*p.Interval, *want.Interval) {
						t.Fatalf("%s/%v/%v: placement %d differs after round trip", g.Name, strat, la, i)
					}
					// The decoded placement must reference the decoded
					// lifetimes artifact's interval object itself.
					found := false
					for _, iv := range gotLf.Intervals {
						if iv == p.Interval {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%s/%v/%v: placement %d does not alias the lifetimes artifact", g.Name, strat, la, i)
					}
				}
			}
		}
	}
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	g := systems.CDDAT()
	rep, _ := RunRepetitions(g)
	ord, _ := RunOrder(g, rep, RPMC, nil)
	ls, _ := RunSchedule(g, rep, ord, SDPPOLoops)
	lf, _ := RunLifetimes(rep, ls)

	if _, err := decodeRep(g, nil); err == nil {
		t.Error("decodeRep accepted an empty payload")
	}
	if _, err := decodeRep(g, append(encodeRep(rep), 0)); err == nil {
		t.Error("decodeRep accepted trailing bytes")
	}
	if _, err := decodeOrder(g, encodeRep(rep)); err == nil {
		t.Error("decodeOrder accepted a repetitions payload")
	}
	short := encodeSched(ls)
	if _, err := decodeSched(g, short[:len(short)-1]); err == nil {
		t.Error("decodeSched accepted a truncated payload")
	}
	if _, err := decodeLife(g, ls, encodeLife(lf)[:3]); err == nil {
		t.Error("decodeLife accepted a truncated payload")
	}
	al, _ := RunAlloc(lf, alloc.FirstFitStart)
	data, err := encodeAlloc(lf, al)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeAlloc(lf, alloc.FirstFitStart, data[:len(data)-1]); err == nil {
		t.Error("decodeAlloc accepted a truncated payload")
	}
}

// TestPlanSecondRunLoadsEverything compiles the same grid twice against one
// store: the second run must execute only assemble nodes, load everything
// else, emit no events for loaded nodes, and return results identical to
// the first run's.
func TestPlanSecondRunLoadsEverything(t *testing.T) {
	g := systems.SatelliteReceiver()
	st := newMapStore()
	pts := fullGrid()

	outs1, err := RunGridOutcomes(context.Background(), g, pts, PlanConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}

	var events []string
	var mu sync.Mutex
	p, err := NewPlan(g, pts, PlanConfig{Store: st, OnEvent: func(e Event) {
		if e.Enter {
			mu.Lock()
			events = append(events, e.Kind.String())
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	outs2 := p.Run(context.Background())

	for _, kc := range p.Stats() {
		switch kc.Kind {
		case KindAssemble:
			if kc.Executed != kc.Nodes || kc.Loaded != 0 {
				t.Errorf("assemble: executed/loaded = %d/%d, want %d/0", kc.Executed, kc.Loaded, kc.Nodes)
			}
		case KindRepetitions, KindOrder, KindSchedule, KindLifetimes, KindAlloc,
			KindPartition, KindSegalloc:
			if kc.Loaded != kc.Nodes || kc.Executed != 0 {
				t.Errorf("%v: executed/loaded = %d/%d, want 0/%d", kc.Kind, kc.Executed, kc.Loaded, kc.Nodes)
			}
		default:
			panic("unknown kind in stats")
		}
	}
	for _, ev := range events {
		if ev != "assemble" {
			t.Errorf("second run emitted an event for a loaded %s node", ev)
		}
	}
	for i := range outs2 {
		if outs2[i].Err != nil || outs1[i].Err != nil {
			t.Fatalf("pt %d: errs %v / %v", i, outs1[i].Err, outs2[i].Err)
		}
		a, b := outs1[i].Result, outs2[i].Result
		if a.Schedule.String() != b.Schedule.String() ||
			!reflect.DeepEqual(a.Metrics, b.Metrics) ||
			!reflect.DeepEqual(a.Order, b.Order) ||
			a.Best.Total != b.Best.Total {
			t.Errorf("pt %d: store-assisted result differs from cold result", i)
		}
	}
}

// TestPlanGarbageStoreFallsBack pins the decode-failure path: a store
// serving undecodable bytes must be treated as a miss on every node, with
// results identical to a storeless run.
func TestPlanGarbageStoreFallsBack(t *testing.T) {
	g := systems.CDDAT()
	pts := fullGrid()[:6]
	cold, err := RunGridOutcomes(context.Background(), g, pts, PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	assisted, err := RunGridOutcomes(context.Background(), g, pts, PlanConfig{Store: garbageStore{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if assisted[i].Err != nil {
			t.Fatalf("pt %d: garbage store broke compilation: %v", i, assisted[i].Err)
		}
		if cold[i].Result.Schedule.String() != assisted[i].Result.Schedule.String() ||
			cold[i].Result.Best.Total != assisted[i].Result.Best.Total {
			t.Errorf("pt %d: garbage store changed the result", i)
		}
	}
}

// TestStoreRenameEditReusesWholePipeline is the headline incremental
// scenario: compile, rename one actor, recompile. Names appear in no store
// key and no artifact payload, so the second compile must load every stage
// and execute only the per-point assembly — on this single-point run, 1
// executed node versus the cold run's 7.
func TestStoreRenameEditReusesWholePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildRand(t, rng, 60)
	st := newMapStore()
	pts := []Options{{}} // paper defaults: RPMC, SDPPO, ffdur+ffstart

	p1, err := NewPlan(g, pts, PlanConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	outs1 := p1.Run(context.Background())
	if outs1[0].Err != nil {
		t.Fatal(outs1[0].Err)
	}
	coldExec := 0
	for _, kc := range p1.Stats() {
		coldExec += kc.Executed
	}

	g2 := renamed(g)
	p2, err := NewPlan(g2, pts, PlanConfig{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	outs2 := p2.Run(context.Background())
	if outs2[0].Err != nil {
		t.Fatal(outs2[0].Err)
	}
	warmExec, warmLoaded := 0, 0
	for _, kc := range p2.Stats() {
		warmExec += kc.Executed
		warmLoaded += kc.Loaded
	}
	if warmExec != 1 {
		t.Errorf("warm recompile executed %d nodes, want 1 (assemble only)", warmExec)
	}
	if warmLoaded != coldExec-1 {
		t.Errorf("warm recompile loaded %d nodes, want %d", warmLoaded, coldExec-1)
	}
	if coldExec < 5*warmExec {
		t.Errorf("rename edit reused too little: cold executed %d, warm %d (< 5x reduction)", coldExec, warmExec)
	}
	// Semantics unchanged up to names: identical schedule shape and totals.
	if outs1[0].Result.Best.Total != outs2[0].Result.Best.Total ||
		outs1[0].Result.Metrics.DPCost != outs2[0].Result.Metrics.DPCost {
		t.Error("rename edit changed allocation totals")
	}
}

// buildRand draws a consistent random graph without importing randsdf (this
// file is in package pass; randsdf has no dependency back, but keeping the
// internal test dependency-light mirrors plan_test).
func buildRand(t *testing.T, rng *rand.Rand, actors int) *sdf.Graph {
	t.Helper()
	reps := []int64{1, 2, 3, 4, 6}
	g := sdf.New("randstore")
	q := make([]int64, actors)
	for i := 0; i < actors; i++ {
		g.AddActor(strings.Repeat("a", 1) + string(rune('A'+i%26)) + string(rune('0'+i/26)))
		q[i] = reps[rng.Intn(len(reps))]
	}
	gcd := func(a, b int64) int64 {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	for i := 1; i < actors; i++ {
		j := rng.Intn(i)
		gg := gcd(q[j], q[i])
		g.AddEdge(sdf.ActorID(j), sdf.ActorID(i), q[i]/gg, q[j]/gg, 0)
	}
	return g
}

// TestStatsDeterminism pins Stats against scheduling: on the one-sided
// filterbank APGAN and RPMC emit the same order and several loopings emit
// the same schedule, so nodes of one level share a store key. Such nodes
// must resolve in plan order (the first executes, the rest load its bytes)
// whatever the goroutine interleaving, so every run at GOMAXPROCS 4 must
// report the GOMAXPROCS 1 counts.
func TestStatsDeterminism(t *testing.T) {
	g := systems.OneSidedFilterbank(4, systems.Ratio23)
	var pts []Options
	for _, strat := range []OrderStrategy{APGAN, RPMC} {
		for _, la := range []LoopAlg{SDPPOLoops, DPPOLoops, ChainPreciseLoops, FlatLoops} {
			for _, a := range []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart} {
				pts = append(pts, Options{Strategy: strat, Looping: la, Allocators: []alloc.Strategy{a}})
			}
		}
	}
	stats := func() []KindCount {
		p, err := NewPlan(g, pts, PlanConfig{Store: newMapStore()})
		if err != nil {
			t.Fatal(err)
		}
		must2(p.Run(context.Background()), t)
		return p.Stats()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := stats()
	runtime.GOMAXPROCS(4)
	for run := 0; run < 50; run++ {
		if got := stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: Stats %+v, GOMAXPROCS 1 gave %+v", run, got, want)
		}
	}
}
