package main

import (
	"errors"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/service"
)

// buildChain makes A -p->c- B -p->c- ... with the given per-hop rates.
func buildChain(t *testing.T, hops [][3]int64) *sdf.Graph {
	t.Helper()
	g := sdf.New("chain")
	prev := g.AddActor("A0")
	for i, h := range hops {
		next := g.AddActor("A" + string(rune('1'+i)))
		g.AddEdge(prev, next, h[0], h[1], h[2])
		prev = next
	}
	return g
}

// TestShrinkWithSyntheticFailure checks the greedy loop finds a minimal
// reproducer: the synthetic "bug" fires whenever the graph still contains an
// edge with a nonzero delay, so the minimum is two actors, one edge, delay
// pinned at the smallest value the reduction steps cannot clear while still
// failing.
func TestShrinkWithSyntheticFailure(t *testing.T) {
	g := buildChain(t, [][3]int64{{2, 3, 0}, {1, 1, 8}, {5, 2, 0}, {1, 4, 3}})
	bug := errors.New("synthetic")
	min, minErr := shrinkWith(g, bug, func(cand *sdf.Graph) (error, bool) {
		for _, e := range cand.Edges() {
			if e.Delay > 0 {
				return bug, true
			}
		}
		return nil, false
	})
	if minErr != bug {
		t.Fatalf("minimized error = %v, want the original", minErr)
	}
	if min.NumActors() != 2 || min.NumEdges() != 1 {
		t.Fatalf("minimized to %s, want 2A/1E", graphSignature(min))
	}
	if d := min.Edge(0).Delay; d != 1 {
		t.Fatalf("minimized delay = %d, want 1 (halving bottoms out at the smallest failing value)", d)
	}
}

// TestShrinkPreservesConsistency: every candidate the reducer proposes must
// be a consistent SDF graph, or re-running the production pipeline on it
// would be meaningless.
func TestShrinkPreservesConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 10; i++ {
		g := randsdf.Graph(rng, randsdf.Config{Actors: 6, Window: 3, DelayProb: 0.5})
		for _, cand := range reductions(g) {
			if !cand.Consistent() {
				t.Fatalf("reduction of consistent graph is inconsistent: %s", graphSignature(cand))
			}
		}
	}
}

// TestCleanRunFindsNothing drives a small deterministic fuzz campaign and
// requires zero violations — the in-process equivalent of the acceptance
// command `sdffuzz -n 500 -seed 1` at reduced n.
func TestCleanRunFindsNothing(t *testing.T) {
	f := &fuzzer{
		rng:       rand.New(rand.NewSource(1)),
		maxActors: 8,
		crashDir:  t.TempDir(),
		configs:   check.PipelineConfigs(),
		seen:      make(map[string]bool),
	}
	f.run(25)
	if f.violations != 0 {
		t.Fatalf("clean run reported %d violations", f.violations)
	}
}

// TestWriteCrasherRoundTrips: the reproducer file must parse back through
// sdfio into a structurally identical graph despite the comment header.
func TestWriteCrasherRoundTrips(t *testing.T) {
	g := buildChain(t, [][3]int64{{3, 2, 1}, {4, 6, 0}})
	g.SetWords(0, 2)
	cfg := check.PipelineConfigs()[0]
	dir := t.TempDir()
	path, err := writeCrasher(dir, "test-bucket", g, cfg, errors.New("boom: detail"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(path), "crasher-test-bucket-") {
		t.Fatalf("unexpected crasher name %s", path)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	back, err := sdfio.Parse(fh)
	if err != nil {
		t.Fatalf("reproducer does not re-parse: %v", err)
	}
	if back.NumActors() != g.NumActors() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round-trip %s, want %s", graphSignature(back), graphSignature(g))
	}
	for i, e := range g.Edges() {
		if b := back.Edge(sdf.EdgeID(i)); b.Prod != e.Prod || b.Cons != e.Cons || b.Delay != e.Delay || b.Words != e.Words {
			t.Fatalf("edge %d mismatch: %+v vs %+v", i, b, e)
		}
	}
}

// TestBucketOf covers both arms: oracle violations bucket by stage/rule,
// compile errors by their leading text.
func TestBucketOf(t *testing.T) {
	cfg := check.PipelineConfigs()[0]
	v := &check.Violation{Stage: check.StageAllocation, Rule: "overlap", Msg: "x"}
	if got := bucketOf(cfg, v); !strings.HasPrefix(got, "allocation-overlap-") {
		t.Fatalf("violation bucket = %q", got)
	}
	if got := bucketOf(cfg, errors.New("apgan: cannot cluster")); !strings.HasPrefix(got, "compile-apgan-") {
		t.Fatalf("compile bucket = %q", got)
	}
}

// TestClassify exercises the verdict triage including wrapped overflow.
func TestClassify(t *testing.T) {
	if classify(nil) != verdictOK {
		t.Fatal("nil must pass")
	}
	wrapped := &wrapErr{sdf.ErrOverflow}
	if classify(wrapped) != verdictSkip {
		t.Fatal("wrapped overflow must skip")
	}
	if classify(errors.New("anything else")) != verdictFail {
		t.Fatal("other errors must fail")
	}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }

// TestDaemonReplayAgainstInProcessServer drives the -daemon replay, grid
// check included, against an in-process sdfd: every /v1/compile answer
// equals the in-process pipeline and every /v1/grid entry equals its
// /v1/compile answer.
func TestDaemonReplayAgainstInProcessServer(t *testing.T) {
	srv := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	if n := daemonReplay(ts.URL, newReplayFuzzer(3, 6, t.TempDir()), 3); n != 0 {
		t.Fatalf("%d divergences", n)
	}
	// The grid requests ran on a cold cache, so the batch runner computed
	// their entries rather than replaying cached /v1/compile bytes.
	var buf strings.Builder
	srv.Registry().WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "\nsdfd_grid_runs_total 3\n") {
		t.Errorf("want 3 planned grid runs, metrics:\n%s", buf.String())
	}
}
