package core_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"regexp"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/sdf"
	"repro/internal/service"
	"repro/internal/systems"
)

func chainGraph() *sdf.Graph {
	g := sdf.New("ctxchain")
	a := g.AddActor("A")
	b := g.AddActor("B")
	c := g.AddActor("C")
	g.AddEdge(a, b, 3, 2, 0)
	g.AddEdge(b, c, 5, 7, 0)
	return g
}

// feedbackPair is a multirate feedback loop fed by a source. The back edge
// carries fewer tokens than one period consumes, so it still constrains
// precedence: {A, B} is a strongly connected component and compilation
// takes the cyclic path.
func feedbackPair() *sdf.Graph {
	g := sdf.New("ctxcycle")
	src := g.AddActor("src")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(src, a, 2, 1, 0)
	g.AddEdge(a, b, 3, 2, 0)
	g.AddEdge(b, a, 2, 3, 4)
	return g
}

// countingCtx is a context whose Err turns context.Canceled after n calls.
// The compiler's stage checkpoints are its only Err callers, so sweeping n
// walks the cancellation point across every stage boundary in turn.
type countingCtx struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func cancelAfter(n int64) *countingCtx {
	return &countingCtx{Context: context.Background(), n: n}
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

var abortText = regexp.MustCompile(`^(core: condensation: )?core: aborted (?:before (\w+) stage|scheduling (component) \d+): context canceled$`)

// abortStages compiles g with the context cancelled after n = 0, 1, 2, ...
// checks until a compilation succeeds, and returns the stages the aborts
// named, consecutive repeats collapsed. Condensation stages of the cyclic
// path carry a "condensation/" prefix.
func abortStages(t *testing.T, g *sdf.Graph, opts core.Options) []string {
	t.Helper()
	var stages []string
	for n := int64(0); n < 100; n++ {
		_, err := core.CompileContext(cancelAfter(n), g, opts)
		if err == nil {
			return stages
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d checks: %v, want context.Canceled", n, err)
		}
		m := abortText.FindStringSubmatch(err.Error())
		if m == nil {
			t.Fatalf("cancel after %d checks: %q lacks the stage-abort text", n, err)
		}
		stage := m[2] + m[3]
		if m[1] != "" {
			stage = "condensation/" + stage
		}
		if len(stages) == 0 || stages[len(stages)-1] != stage {
			stages = append(stages, stage)
		}
	}
	t.Fatal("compilation never completed under the counting context")
	return nil
}

func TestCompileContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.CompileContext(ctx, chainGraph(), core.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compile returned %v, want context.Canceled", err)
	}
}

func TestCompileContextMidPipelineCancel(t *testing.T) {
	// Repetitions, order, schedule and lifetimes each check once, so the
	// fifth check is the first allocator's.
	_, err := core.CompileContext(cancelAfter(4), chainGraph(), core.Options{Verify: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-pipeline cancel returned %v, want context.Canceled", err)
	}
	if want := "core: aborted before alloc stage: context canceled"; err.Error() != want {
		t.Fatalf("mid-pipeline cancel returned %q, want %q", err, want)
	}
}

func TestCompileContextStageSequence(t *testing.T) {
	got := abortStages(t, chainGraph(), core.Options{Verify: true, Merging: true})
	want := []string{core.StageSchedule, core.StageLoopDP, core.StageLifetime, core.StageAlloc,
		core.StageVerify, core.StageMerge, core.StageDone}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("abort stages %v, want %v", got, want)
	}
}

func TestCompileGeneralContextCyclicStages(t *testing.T) {
	got := abortStages(t, feedbackPair(), core.Options{Verify: true})
	want := []string{core.StageSchedule,
		"condensation/" + core.StageSchedule, "condensation/" + core.StageLoopDP,
		"condensation/" + core.StageLifetime, "condensation/" + core.StageAlloc,
		"condensation/" + core.StageDone,
		core.StageLoopDP, "component", core.StageLifetime, core.StageAlloc, core.StageVerify, core.StageDone}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cyclic abort stages %v, want %v", got, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.CompileGeneralContext(ctx, feedbackPair(), core.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cyclic compile returned %v, want context.Canceled", err)
	}
}

// TestCompileEntryPointsAgreeOnEcho: CompileContext and
// CompileGeneralContext are one body, so on the cyclic echo canceller they
// render byte-identical artifacts under either ordering heuristic.
func TestCompileEntryPointsAgreeOnEcho(t *testing.T) {
	g := systems.EchoCanceller()
	for _, wire := range []service.CompileOptions{{Strategy: "apgan"}, {Strategy: "rpmc"}} {
		opts := core.Options{Strategy: core.APGAN, Verify: true}
		if wire.Strategy == "rpmc" {
			opts.Strategy = core.RPMC
		}
		a, err := core.CompileContext(context.Background(), g, opts)
		if err != nil {
			t.Fatalf("%s: CompileContext: %v", wire.Strategy, err)
		}
		b, err := core.CompileGeneralContext(context.Background(), g, opts)
		if err != nil {
			t.Fatalf("%s: CompileGeneralContext: %v", wire.Strategy, err)
		}
		ab, err := service.ArtifactBytes(a, wire)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := service.ArtifactBytes(b, wire)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: artifacts differ\nCompileContext:        %s\nCompileGeneralContext: %s", wire.Strategy, ab, bb)
		}
	}
}
