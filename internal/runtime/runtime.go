// Package runtime executes a compiled SDF system on real data: actor
// behaviour is supplied as Go functions, tokens are float64 samples, and all
// buffering happens inside the single shared memory image produced by the
// allocator — the software analogue of running the generated C on a DSP.
//
// Each edge buffer lives at its allocated offset with modulo addressing
// (cursor arithmetic identical to the generated C), so executing a system
// here exercises exactly the memory behaviour the paper's synthesis flow
// commits to. Both engines place buffers by an alloc.Layout, the one the
// simulator and the code generators read, and fire through one core whose
// tables are built at construction, so firings allocate nothing of their
// own.
package runtime

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// Fire is one actor's behaviour for a single firing: inputs holds the
// consumed tokens per input edge (in g.In order, cns(e) values each); the
// returned slice must hold prd(e) tokens per output edge (in g.Out order).
//
// The inputs vectors belong to the engine and are overwritten by the same
// actor's next firing, so a Fire must copy any input it keeps. The engine
// copies the returned outputs into its memory image before the firing ends,
// so a Fire may return the same output buffers on every firing.
type Fire func(inputs [][]float64) [][]float64

// image is the firing core both engines share: the memory image, each
// edge's cursors, and each actor's precomputed firing table.
type image struct {
	g      *sdf.Graph
	mem    []float64
	edges  []edgeState
	actors []actorTable
}

// edgeState is one edge's buffer (its cells in the image) and cursors. rd
// and wr stay inside [0, len(buf)).
type edgeState struct {
	buf                       []float64
	rd, wr, count, cons, prod int64
}

// actorTable is everything a firing of one actor needs, resolved once.
type actorTable struct {
	fire      Fire // the supplied body or sumFire
	ins, outs []sdf.EdgeID
	inputs    [][]float64 // reused input vectors, cns(e) each
}

// newImage builds the core over the image an allocation's layout describes.
func newImage(g *sdf.Graph, fires map[sdf.ActorID]Fire, l *alloc.Layout) (image, error) {
	m := image{
		g:      g,
		mem:    make([]float64, l.Total),
		edges:  make([]edgeState, g.NumEdges()),
		actors: make([]actorTable, g.NumActors()),
	}
	for _, ed := range g.Edges() {
		if ed.Words > 1 {
			return image{}, fmt.Errorf("runtime: edge %d uses %d-word tokens; the float64 engine supports scalar tokens only",
				ed.ID, ed.Words)
		}
		off, size := l.Offsets[ed.ID], l.Sizes[ed.ID]
		// Initial tokens are zeros, occupying the first del cells.
		m.edges[ed.ID] = edgeState{buf: m.mem[off : off+size], wr: ed.Delay % size,
			count: ed.Delay, cons: ed.Cons, prod: ed.Prod}
	}
	for _, a := range g.Actors() {
		t := &m.actors[a.ID]
		t.fire, t.ins, t.outs = fires[a.ID], g.In(a.ID), g.Out(a.ID)
		t.inputs = make([][]float64, len(t.ins))
		for i, e := range t.ins {
			t.inputs[i] = make([]float64, m.edges[e].cons)
		}
		if t.fire == nil {
			outs := make([][]float64, len(t.outs))
			for i, e := range t.outs {
				outs[i] = make([]float64, m.edges[e].prod)
			}
			t.fire = sumFire(outs)
		}
	}
	return m, nil
}

// sumFire is the default body: every output token, written into outs, is
// the sum of all consumed tokens (sources emit 0).
func sumFire(outs [][]float64) Fire {
	return func(inputs [][]float64) [][]float64 {
		var sum float64
		for _, vals := range inputs {
			for _, v := range vals {
				sum += v
			}
		}
		for _, vals := range outs {
			for k := range vals {
				vals[k] = sum
			}
		}
		return outs
	}
}

// read moves len(dst) tokens out of the buffer; len(dst) <= len(buf).
func (st *edgeState) read(dst []float64) {
	for k := range dst {
		dst[k] = st.buf[st.rd]
		if st.rd++; st.rd == int64(len(st.buf)) {
			st.rd = 0
		}
	}
}

// write moves src into the buffer; len(src) <= len(buf).
func (st *edgeState) write(src []float64) {
	for _, v := range src {
		st.buf[st.wr] = v
		if st.wr++; st.wr == int64(len(st.buf)) {
			st.wr = 0
		}
	}
}

// Mem exposes the memory image (for inspection; do not resize).
func (m *image) Mem() []float64 { return m.mem }

// TokensOn returns the tokens currently queued on an edge, oldest first.
// Call it only between periods.
func (m *image) TokensOn(edge sdf.EdgeID) []float64 {
	st := m.edges[edge]
	out := make([]float64, st.count)
	st.read(out)
	return out
}

// Push appends tokens to an edge's queue (useful to seed non-zero initial
// token values before the first period).
func (m *image) Push(edge sdf.EdgeID, values ...float64) error {
	st := &m.edges[edge]
	if st.count+int64(len(values)) > int64(len(st.buf)) {
		return fmt.Errorf("runtime: pushing %d tokens overflows edge %d (count %d, size %d)",
			len(values), edge, st.count, len(st.buf))
	}
	st.write(values)
	st.count += int64(len(values))
	return nil
}

// fire executes n consecutive firings of actor a. Both engines fire through
// it, so they commit to exactly the same consume/compute/produce arithmetic
// (and therefore bit-identical float64 results for identical firing
// sequences).
func (m *image) fire(a sdf.ActorID, n int64) error {
	t := &m.actors[a]
	for ; n > 0; n-- {
		for i, eid := range t.ins {
			st := &m.edges[eid]
			if st.count < st.cons {
				return fmt.Errorf("edge %d underflow: have %d, need %d", eid, st.count, st.cons)
			}
			st.read(t.inputs[i])
			st.count -= st.cons
		}
		outputs := t.fire(t.inputs)
		if len(outputs) != len(t.outs) {
			return fmt.Errorf("actor returned %d output vectors, want %d", len(outputs), len(t.outs))
		}
		for i, eid := range t.outs {
			st := &m.edges[eid]
			if int64(len(outputs[i])) != st.prod {
				return fmt.Errorf("actor produced %d tokens on edge %d, want %d",
					len(outputs[i]), eid, st.prod)
			}
			if st.count+st.prod > int64(len(st.buf)) {
				return fmt.Errorf("edge %d overflow: count %d + %d > capacity %d",
					eid, st.count, st.prod, len(st.buf))
			}
			st.write(outputs[i])
			st.count += st.prod
		}
	}
	return nil
}

// Engine executes a compiled result period by period.
type Engine struct {
	image
	body []*sched.Node
}

// New builds an engine for a verified compilation result. Actors without an
// entry in fires get the default behaviour: every output token is the sum of
// all consumed tokens (sources emit 0).
func New(res *core.Result, fires map[sdf.ActorID]Fire) (*Engine, error) {
	l, err := alloc.NewLayout(res.Best, res.Intervals)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	m, err := newImage(res.Graph, fires, l)
	if err != nil {
		return nil, err
	}
	return &Engine{image: m, body: res.Schedule.Body}, nil
}

// RunPeriod executes one complete schedule period, walking the looped
// schedule directly.
func (e *Engine) RunPeriod() error { return e.run(e.body) }

func (e *Engine) run(body []*sched.Node) error {
	for _, n := range body {
		if n.IsLeaf() {
			if err := e.fire(n.Actor, n.Count); err != nil {
				return fmt.Errorf("runtime: firing %s: %w", e.g.Actor(n.Actor).Name, err)
			}
			continue
		}
		for i := int64(0); i < n.Count; i++ {
			if err := e.run(n.Children); err != nil {
				return err
			}
		}
	}
	return nil
}
