package core

import (
	"context"

	"repro/internal/pass"
	"repro/internal/sdf"
)

// CompileGeneral is Compile, kept under the name that marks support for
// graphs whose precedence relation is cyclic: those take the
// SCC-condensation decomposition (see docs/PIPELINE.md).
func CompileGeneral(g *sdf.Graph, opts Options) (*Result, error) {
	return pass.Compile(g, opts)
}

// CompileGeneralContext is CompileContext under the CompileGeneral name.
func CompileGeneralContext(ctx context.Context, g *sdf.Graph, opts Options) (*Result, error) {
	return pass.CompileContext(ctx, g, opts)
}
