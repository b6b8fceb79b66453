// Package core ties the whole framework together: it implements the Fig. 21
// compilation flow of Murthy & Bhattacharyya's shared-memory SDF synthesis —
//
//	SDF graph -> repetitions vector -> topological sort (APGAN or RPMC) ->
//	flat SAS -> loop-hierarchy post-optimization (DPPO / SDPPO / precise
//	chain DP) -> schedule tree -> buffer lifetime extraction -> dynamic
//	storage allocation (first-fit) -> verified shared memory image.
//
// Compile is the single entry point a downstream user needs; the individual
// phases remain available in their own packages.
//
// The pipeline body lives in internal/pass: each Fig. 21 stage is a typed
// pass with an explicit artifact struct and a content key, and pass.Plan
// executes whole configuration grids with memoized prefix sharing. This
// package re-exports the option/result types as aliases and the compile
// entry points, each a one-point pass.Plan. See docs/PIPELINE.md.
package core

import (
	"context"

	"repro/internal/pass"
	"repro/internal/sdf"
)

// OrderStrategy selects how the lexical ordering (topological sort) is
// generated.
type OrderStrategy = pass.OrderStrategy

const (
	// APGAN clusters adjacent actors bottom-up by maximum repetition gcd.
	APGAN = pass.APGAN
	// RPMC partitions the graph top-down by minimum legal cuts.
	RPMC = pass.RPMC
	// CustomOrder uses Options.Order verbatim.
	CustomOrder = pass.CustomOrder
)

// LoopAlg selects the loop-hierarchy post-optimization.
type LoopAlg = pass.LoopAlg

const (
	// SDPPOLoops is the shared-model heuristic DP (EQ 5) — the paper's
	// default for shared-memory synthesis.
	SDPPOLoops = pass.SDPPOLoops
	// DPPOLoops is the non-shared-model DP (EQ 2/3).
	DPPOLoops = pass.DPPOLoops
	// ChainPreciseLoops uses the exact triple-cost DP of Sec. 6 when the
	// graph is chain-structured under the chosen order, falling back to
	// SDPPO otherwise.
	ChainPreciseLoops = pass.ChainPreciseLoops
	// FlatLoops skips post-optimization and keeps the flat SAS.
	FlatLoops = pass.FlatLoops
)

// Options configures Compile. The zero value selects APGAN ordering (the
// first OrderStrategy constant), SDPPO looping, and first-fit-by-duration
// and first-fit-by-start allocation with the better result selected. sdfc
// and sdfd default to RPMC ordering instead, through their flag and
// wire-option defaults.
type Options = pass.Options

// Result is the outcome of a compilation.
type Result = pass.Result

// Metrics gathers every number the paper's tables report for one run.
type Metrics = pass.Metrics

// Pipeline stage names used in cancellation errors ("core: aborted before
// <stage> stage"); sdfd also labels its stage-latency histogram with the
// pass-level ones. They follow the Fig. 21 flow: the schedule stage covers the repetitions vector and the
// topological sort, loopdp is the loop-hierarchy DP, then lifetime
// extraction and storage allocation; verify and merge are reached only when
// the corresponding option is set.
const (
	StageSchedule  = pass.StageSchedule
	StageLoopDP    = pass.StageLoopDP
	StageLifetime  = pass.StageLifetime
	StageAlloc     = pass.StageAlloc
	StagePartition = pass.StagePartition
	StageSegments  = pass.StageSegments
	StageVerify    = pass.StageVerify
	StageMerge     = pass.StageMerge
	StageDone      = pass.StageDone
)

// Compile runs the full flow on a consistent SDF graph, acyclic or cyclic.
func Compile(g *sdf.Graph, opts Options) (*Result, error) {
	return pass.Compile(g, opts)
}

// CompileContext is Compile with cooperative cancellation: the deadline or
// cancellation of ctx is observed at every stage boundary. A cancelled
// compilation returns an error wrapping ctx.Err() and no Result.
func CompileContext(ctx context.Context, g *sdf.Graph, opts Options) (*Result, error) {
	return pass.CompileContext(ctx, g, opts)
}
