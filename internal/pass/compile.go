package pass

import (
	"context"

	"repro/internal/sdf"
)

// Compile runs the full flow on a consistent SDF graph, acyclic or cyclic.
func Compile(g *sdf.Graph, opts Options) (*Result, error) {
	return CompileContext(context.Background(), g, opts)
}

// CompileContext is Compile with cooperative cancellation: a one-point Plan
// without a store. The deadline or cancellation of ctx is observed at every
// stage boundary; a cancelled compilation returns an error wrapping
// ctx.Err() and no Result. Cyclic graphs take the SCC condensation path
// (compileCyclic).
func CompileContext(ctx context.Context, g *sdf.Graph, opts Options) (*Result, error) {
	outs, err := RunGridOutcomes(ctx, g, []Options{opts}, PlanConfig{})
	if err != nil {
		return nil, err
	}
	return outs[0].Result, outs[0].Err
}
