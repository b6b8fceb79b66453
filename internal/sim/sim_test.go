package sim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/partition"
	"repro/internal/randsdf"
	"repro/internal/sched"
	"repro/internal/schedtree"
	"repro/internal/sdf"
)

// pipeline compiles a schedule down to lifetimes + allocation for testing.
func pipeline(t *testing.T, g *sdf.Graph, text string, strat alloc.Strategy) (
	*sched.Schedule, sdf.Repetitions, []*lifetime.Interval, *alloc.Allocation) {
	t.Helper()
	q, err := g.Repetitions()
	if err != nil {
		t.Fatal(err)
	}
	s := sched.MustParse(g, text)
	if err := s.Validate(q); err != nil {
		t.Fatalf("schedule %q: %v", text, err)
	}
	tr, err := schedtree.FromSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := tr.Lifetimes(q)
	if err != nil {
		t.Fatal(err)
	}
	a := alloc.Allocate(ivs, strat)
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	return s, q, ivs, a
}

func TestRunChain(t *testing.T) {
	g := sdf.New("chain")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	g.AddEdge(a, b, 2, 1, 0)
	g.AddEdge(b, c, 1, 3, 0)
	for _, text := range []string{"(3A)(6B)(2C)", "(3A(2B))(2C)"} {
		s, q, ivs, al := pipeline(t, g, text, alloc.FirstFitDuration)
		if err := Run(s, q, ivs, al, 3); err != nil {
			t.Errorf("%s: %v", text, err)
		}
	}
}

func TestRunWithDelays(t *testing.T) {
	g := sdf.New("delay")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 2, 1, 1)
	s, q, ivs, al := pipeline(t, g, "(A(2B))", alloc.FirstFitStart)
	if err := Run(s, q, ivs, al, 4); err != nil {
		t.Error(err)
	}
}

func TestRunDetectsClobber(t *testing.T) {
	// Force two time-overlapping buffers onto the same cells: A->B and A->C
	// both live while A fires.
	g := sdf.New("bad")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	g.AddEdge(a, b, 1, 1, 0)
	g.AddEdge(a, c, 1, 1, 0)
	q, _ := g.Repetitions()
	s := sched.MustParse(g, "ABC")
	tr, err := schedtree.FromSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := tr.Lifetimes(q)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately broken allocation: both buffers at offset 0.
	bad := &alloc.Allocation{
		Placements: []alloc.Placement{
			{Interval: ivs[0], Offset: 0},
			{Interval: ivs[1], Offset: 0},
		},
		Total: 1,
	}
	err = Run(s, q, ivs, bad, 1)
	if err == nil {
		t.Fatal("clobbering allocation passed the simulator")
	}
	if !strings.Contains(err.Error(), "clobber") && !strings.Contains(err.Error(), "corrupted") {
		t.Errorf("unexpected error kind: %v", err)
	}

	// The same two buffers in a segmented layout: A on worker 0, B and C on
	// worker 1, so both edges are cross-worker, live together in the shared
	// segment, and must fail once stacked on the same cells.
	part, err := partition.Rebuild(g, q, []sdf.ActorID{a, b, c}, 2, []int{0, 1, 1}, []int{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	seg, err := partition.Allocate(g, q, part)
	if err != nil {
		t.Fatal(err)
	}
	if shared := seg.SharedIndex(); seg.EdgeSeg[0] != shared || seg.EdgeSeg[1] != shared {
		t.Fatalf("edges routed to segments %v, want both shared (%d)", seg.EdgeSeg, shared)
	}
	if err := RunPhased(g, q, part, seg, 1); err != nil {
		t.Fatalf("segmented layout before overlap: %v", err)
	}
	seg.Offsets[1] = seg.Offsets[0]
	err = RunPhased(g, q, part, seg, 1)
	if err == nil {
		t.Fatal("overlapped shared-segment buffers passed the phased simulator")
	}
	if !strings.Contains(err.Error(), "corrupted") {
		t.Errorf("unexpected phased error kind: %v", err)
	}
}

func TestRunDetectsBadSchedule(t *testing.T) {
	g := sdf.New("under")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 1, 1, 0)
	q := sdf.Repetitions{1, 1}
	// B first: underflow.
	s := sched.MustParse(g, "BA")
	iv := &lifetime.Interval{Name: "x", Size: 1, Start: 0, Dur: 2}
	al := &alloc.Allocation{Placements: []alloc.Placement{{Interval: iv, Offset: 0}}, Total: 1}
	if err := Run(s, q, []*lifetime.Interval{iv}, al, 1); err == nil {
		t.Error("underflowing schedule passed")
	}
}

func TestRunRandomPipelines(t *testing.T) {
	// End-to-end property: every compiled random graph must execute cleanly
	// for several periods under both allocators, and partitioned on two
	// workers over its segmented layout. Uses flat SAS from a deterministic
	// topological sort.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		g := randsdf.Graph(rng, randsdf.Config{Actors: 4 + rng.Intn(10)})
		q, err := g.Repetitions()
		if err != nil {
			t.Fatal(err)
		}
		order, err := g.TopologicalSort(q)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.FlatSAS(g, q, order)
		tr, err := schedtree.FromSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		ivs, err := tr.Lifetimes(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []alloc.Strategy{alloc.FirstFitDuration, alloc.FirstFitStart} {
			al := alloc.Allocate(ivs, strat)
			if err := al.Verify(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if err := Run(s, q, ivs, al, 3); err != nil {
				t.Fatalf("trial %d (%v): %v", trial, strat, err)
			}
		}
		part, err := partition.Run(g, q, order, 2)
		if err != nil {
			t.Fatal(err)
		}
		seg, err := partition.Allocate(g, q, part)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunPhased(g, q, part, seg, 3); err != nil {
			t.Fatalf("trial %d (P=2): %v", trial, err)
		}
	}
}

func TestTokenValueUnique(t *testing.T) {
	seen := map[int64]bool{}
	for e := sdf.EdgeID(0); e < 10; e++ {
		for n := int64(0); n < 100; n++ {
			v := tokenValue(e, n)
			if seen[v] {
				t.Fatalf("duplicate token value %d", v)
			}
			seen[v] = true
		}
	}
}
