// Edit-sequence differential property test for the persistent pass-node
// store: a warm store must be invisible in the output. Every artifact a
// store-assisted compile produces is compared byte-for-byte against a cold
// storeless one-point compile (CompileContext) of the same graph, across a
// long sequence of single-point edits (renames, rate words, delays, new
// actors, reverts) that exercises every invalidation boundary in the key
// projection table.
//
// This lives in an external test package so it can render results through
// internal/service's canonical artifact encoding (the byte surface clients
// actually see) without an import cycle.
package pass_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/check"
	"repro/internal/nodestore"
	"repro/internal/pass"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/service"
)

// graphSpec is a mutable description of an SDF graph; each edit rewrites
// the spec and rebuilds the graph from scratch, the way an editor session
// re-elaborates a model after a source change.
type graphSpec struct {
	actors []string
	edges  []edgeSpec
}

type edgeSpec struct {
	src, dst                 int
	prod, cons, delay, words int64
}

func specOf(g *sdf.Graph) *graphSpec {
	s := &graphSpec{}
	for _, a := range g.Actors() {
		s.actors = append(s.actors, a.Name)
	}
	for _, e := range g.Edges() {
		s.edges = append(s.edges, edgeSpec{
			src: int(e.Src), dst: int(e.Dst),
			prod: e.Prod, cons: e.Cons, delay: e.Delay, words: e.Words,
		})
	}
	return s
}

func (s *graphSpec) clone() *graphSpec {
	return &graphSpec{
		actors: append([]string(nil), s.actors...),
		edges:  append([]edgeSpec(nil), s.edges...),
	}
}

func (s *graphSpec) build() *sdf.Graph {
	g := sdf.New("editseq")
	for _, name := range s.actors {
		g.AddActor(name)
	}
	for _, e := range s.edges {
		id := g.AddEdge(sdf.ActorID(e.src), sdf.ActorID(e.dst), e.prod, e.cons, e.delay)
		if e.words > 0 {
			g.SetWords(id, e.words)
		}
	}
	return g
}

// mutate applies one random edit. Each branch crosses a different store
// invalidation boundary: renames invalidate nothing, words invalidate
// lifetimes (and flat schedules), delays invalidate ordering and below,
// new actors invalidate everything, reverts restore full reuse.
func (s *graphSpec) mutate(rng *rand.Rand, step int, base *graphSpec) *graphSpec {
	switch rng.Intn(5) {
	case 0: // rename an actor
		i := rng.Intn(len(s.actors))
		s.actors[i] = fmt.Sprintf("ren%d_%d", i, step)
	case 1: // resize an edge's sample words
		e := &s.edges[rng.Intn(len(s.edges))]
		e.words = 1 + int64(rng.Intn(8))
	case 2: // toggle initial tokens on an edge
		e := &s.edges[rng.Intn(len(s.edges))]
		if e.delay == 0 {
			e.delay = e.prod * int64(1+rng.Intn(2))
		} else {
			e.delay = 0
		}
	case 3: // grow the graph by a rate-1 sink actor
		src := rng.Intn(len(s.actors))
		s.actors = append(s.actors, fmt.Sprintf("n%d", step))
		s.edges = append(s.edges, edgeSpec{src: src, dst: len(s.actors) - 1, prod: 1, cons: 1, words: 1})
	case 4: // revert to the base model
		return base.clone()
	}
	return s
}

const editSequenceLen = 200

// TestStoreEditSequenceDifferential is the correctness pin for incremental
// recompilation: over a 200-edit sequence, store-assisted artifacts are
// byte-identical to cold storeless compilation and check.Pipeline verdicts are
// unchanged. Run under -race (the CI incremental job does) to cover the
// plan's concurrent store probes.
func TestStoreEditSequenceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := specOf(randsdf.Graph(rng, randsdf.Config{Actors: 24, DelayProb: 0.2}))

	st, err := nodestore.Open(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}

	// Two grid points per edit: the defaults, and the opposite corner of
	// the options space (different ordering, the words-sensitive flat
	// looping, the best-fit allocator).
	points := []struct {
		popt pass.Options
		wopt service.CompileOptions
	}{
		{pass.Options{}, service.CompileOptions{}},
		{
			pass.Options{Strategy: pass.APGAN, Looping: pass.FlatLoops, Allocators: []alloc.Strategy{alloc.BestFitDuration}},
			service.CompileOptions{Strategy: "apgan", Looping: "flat", Allocators: []string{"bfdur"}},
		},
	}
	popts := make([]pass.Options, len(points))
	for i, pt := range points {
		popts[i] = pt.popt
	}

	ctx := context.Background()
	spec := base.clone()
	totalLoaded, totalExecuted := 0, 0
	for step := 0; step < editSequenceLen; step++ {
		spec = spec.mutate(rng, step, base)
		g := spec.build()

		p, err := pass.NewPlan(g, popts, pass.PlanConfig{Store: st})
		if err != nil {
			t.Fatalf("edit %d: %v", step, err)
		}
		outs := p.Run(ctx)
		for _, kc := range p.Stats() {
			totalLoaded += kc.Loaded
			totalExecuted += kc.Executed
		}

		for i, pt := range points {
			cold, coldErr := pass.CompileContext(ctx, g, pt.popt)
			if (coldErr == nil) != (outs[i].Err == nil) {
				t.Fatalf("edit %d pt %d: cold err %v, store-assisted err %v", step, i, coldErr, outs[i].Err)
			}
			if coldErr != nil {
				if coldErr.Error() != outs[i].Err.Error() {
					t.Fatalf("edit %d pt %d: error text diverged: %v vs %v", step, i, coldErr, outs[i].Err)
				}
				continue
			}
			want, err := service.ArtifactBytes(cold, pt.wopt)
			if err != nil {
				t.Fatalf("edit %d pt %d: render cold: %v", step, i, err)
			}
			got, err := service.ArtifactBytes(outs[i].Result, pt.wopt)
			if err != nil {
				t.Fatalf("edit %d pt %d: render store-assisted: %v", step, i, err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("edit %d pt %d: store-assisted artifact differs from cold compile\ncold:  %s\nwarm:  %s", step, i, want, got)
			}

			coldVerdict := check.Pipeline(cold, check.Options{})
			assistedVerdict := check.Pipeline(outs[i].Result, check.Options{})
			if (coldVerdict == nil) != (assistedVerdict == nil) {
				t.Fatalf("edit %d pt %d: check.Pipeline verdicts diverged: %v vs %v", step, i, coldVerdict, assistedVerdict)
			}
			if coldVerdict != nil && coldVerdict.Error() != assistedVerdict.Error() {
				t.Fatalf("edit %d pt %d: check.Pipeline verdict text diverged: %v vs %v", step, i, coldVerdict, assistedVerdict)
			}
		}
	}

	if totalLoaded == 0 {
		t.Fatal("store was never hit across the edit sequence; incremental reuse is broken")
	}
	if stats := st.Stats(); stats.Hits == 0 || stats.Puts == 0 {
		t.Fatalf("store stats show no traffic: %+v", stats)
	}
	t.Logf("edit sequence: %d nodes loaded, %d executed, store %+v", totalLoaded, totalExecuted, st.Stats())
}
