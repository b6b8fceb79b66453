package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/pass"
	"repro/internal/randsdf"
)

// TestPlannerDifferential is the planner's property test: across hundreds of
// random consistent acyclic graphs and the full configuration grid, the
// prefix-sharing grid plan must produce byte-identical service artifacts
// to point-at-a-time core.Compile (a one-point plan per point), and the
// invariant oracle must reach the same verdict on both results. Run under
// -race (make grid) this also exercises the concurrent sharing of
// Lifetimes artifacts across allocator leaves.
func TestPlannerDifferential(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 30
	}
	configs := check.PipelineConfigs()
	points := make([]pass.Options, len(configs))
	wire := make([]CompileOptions, len(configs))
	for i, cfg := range configs {
		points[i] = cfg.Options()
		sname, err := StrategyName(cfg.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		lname, err := LoopingName(cfg.Looping)
		if err != nil {
			t.Fatal(err)
		}
		var allocs []string
		for _, a := range cfg.Allocators {
			name, err := AllocatorName(a)
			if err != nil {
				t.Fatal(err)
			}
			allocs = append(allocs, name)
		}
		norm, err := normalize(CompileOptions{Strategy: sname, Looping: lname, Allocators: allocs})
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = norm
	}

	for trial := 0; trial < n; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g := randsdf.Graph(rng, randsdf.Config{
			Actors:   3 + rng.Intn(8),
			EdgeProb: 0.3,
			Window:   4,
		})
		g.Name = fmt.Sprintf("diff%d", trial)

		outs, err := pass.RunGridOutcomes(context.Background(), g, points, pass.PlanConfig{})
		if err != nil {
			t.Fatalf("trial %d: plan: %v", trial, err)
		}
		for pi, o := range outs {
			single, derr := core.Compile(g, points[pi])
			if (derr == nil) != (o.Err == nil) {
				t.Fatalf("trial %d %v: one-point err %v, grid err %v", trial, configs[pi], derr, o.Err)
			}
			if derr != nil {
				if derr.Error() != o.Err.Error() {
					t.Fatalf("trial %d %v: error text diverged: %q vs %q",
						trial, configs[pi], derr, o.Err)
				}
				continue
			}
			wantBytes, err := ArtifactBytes(single, wire[pi])
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := ArtifactBytes(o.Result, wire[pi])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantBytes, gotBytes) {
				t.Fatalf("trial %d %v: grid artifact differs from the one-point plan",
					trial, configs[pi])
			}
			// The oracle is expensive; spot-check a rotating subset instead
			// of every (graph, point) pair.
			if (trial+pi)%4 == 0 {
				dv := check.Pipeline(single, check.Options{})
				pv := check.Pipeline(o.Result, check.Options{})
				if (dv == nil) != (pv == nil) {
					t.Fatalf("trial %d %v: oracle verdicts diverge: one-point %v, grid %v",
						trial, configs[pi], dv, pv)
				}
				if dv != nil {
					t.Fatalf("trial %d %v: oracle violation on random graph: %v",
						trial, configs[pi], dv)
				}
			}
		}
	}
}
