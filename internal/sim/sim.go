// Package sim executes an SDF schedule token-by-token against a concrete
// shared-memory layout and verifies that the combination is safe: no firing
// ever writes into cells owned by another live buffer, every consumed token
// carries exactly the value that was produced, and every edge returns to its
// initial state at the period boundary.
//
// It is the end-to-end correctness oracle for the whole compiler pipeline:
// scheduling, lifetime extraction and storage allocation must all be right
// for a multi-period run to pass. Run checks a looped schedule on one worker;
// RunPhased checks a partitioned schedule on P workers. Both fire through
// the same machine over an alloc.Layout.
package sim

import (
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/sdf"
)

// Run executes the schedule for the given number of periods in a shared
// memory image laid out by the allocation: one worker firing the looped
// schedule in order, with the cell-ownership ledger on. intervals must be
// indexed by edge ID (as produced by schedtree.Lifetimes) and each must have
// a placement in the allocation. It returns the first safety violation
// found, or nil.
func Run(s *sched.Schedule, q sdf.Repetitions, intervals []*lifetime.Interval,
	a *alloc.Allocation, periods int) error {
	g := s.Graph
	if len(intervals) != g.NumEdges() {
		return fmt.Errorf("sim: %d intervals for %d edges", len(intervals), g.NumEdges())
	}
	l, err := alloc.NewLayout(a, intervals)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	m, err := newMachine(g, l, true)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return m.run(periods, 1, "sim:", func(p, _ int) error {
		var failure error
		if !s.ForEachFiring(func(actor sdf.ActorID) bool {
			failure = m.fire(actor)
			return failure == nil
		}) {
			return fmt.Errorf("sim: period %d: %w", p, failure)
		}
		return nil
	})
}

// RunPhased executes a phased partitioned schedule on P goroutines against
// the segmented allocation and verifies the same token properties as Run.
// Workers synchronize on a cyclic barrier after every phase, so all
// cross-worker buffer traffic is write-then-barrier-then-read; the
// verification therefore also catches partitioning bugs (a same-phase
// cross-worker edge, a shared buffer packed over a still-live neighbour) as
// value corruption or count drift. The ownership ledger stays off, since
// concurrent workers would race on it: segments make private traffic
// disjoint by construction and the unique token values turn any
// cross-buffer clobbering into a read mismatch.
func RunPhased(g *sdf.Graph, q sdf.Repetitions, part *partition.Partitioned,
	seg *partition.SegAlloc, periods int) error {
	if len(q) != g.NumActors() {
		return fmt.Errorf("sim: phased: %d repetitions for %d actors", len(q), g.NumActors())
	}
	m, err := newMachine(g, &seg.Layout, false)
	if err != nil {
		return fmt.Errorf("sim: phased: %w", err)
	}
	bar := par.NewBarrier(part.P)
	return m.run(periods, part.P, "sim: phased", func(p, w int) error {
		var err error
		for ph := 0; ph < part.NumPhases; ph++ {
			for _, blk := range part.Phases[ph].Workers[w] {
				for k := int64(0); k < blk.Count && err == nil; k++ {
					if err = m.fire(blk.Actor); err != nil {
						err = fmt.Errorf("sim: phased period %d phase %d worker %d: %w", p, ph, w, err)
					}
				}
			}
			bar.Await()
		}
		return err
	})
}

// machine is the memory image of one run and each edge's token state.
type machine struct {
	g     *sdf.Graph
	mem   []int64
	owner []int // edge ID owning each cell, -1 when free; nil without the ledger
	edges []edgeState
}

type edgeState struct {
	offset, size  int64
	words         int64 // memory words per token
	count         int64
	writes, reads int64 // absolute token counters
	live          bool
}

// newMachine lays out the image, with the ownership ledger when ledger is
// set, and seeds every edge's initial tokens.
func newMachine(g *sdf.Graph, l *alloc.Layout, ledger bool) (*machine, error) {
	if len(l.Offsets) != g.NumEdges() || len(l.Sizes) != g.NumEdges() {
		return nil, fmt.Errorf("allocation covers %d edges, graph has %d", len(l.Offsets), g.NumEdges())
	}
	m := &machine{g: g, mem: make([]int64, l.Total), edges: make([]edgeState, g.NumEdges())}
	if ledger {
		m.owner = make([]int, l.Total)
		for i := range m.owner {
			m.owner[i] = -1
		}
	}
	for _, e := range g.Edges() {
		es := &m.edges[e.ID]
		*es = edgeState{offset: l.Offsets[e.ID], size: l.Sizes[e.ID], words: max(e.Words, 1), count: e.Delay}
		if es.offset < 0 || es.offset+es.size > l.Total {
			return nil, fmt.Errorf("edge %d buffer [%d,%d) outside image of %d cells",
				e.ID, es.offset, es.offset+es.size, l.Total)
		}
		if e.Delay > 0 {
			if err := m.claim(e.ID); err != nil {
				return nil, err
			}
			es.live = true
		}
		for i := int64(0); i < e.Delay; i++ {
			m.write(e.ID)
		}
	}
	return m, nil
}

// run executes periods: each period runs work for workers 0..workers-1 —
// worker 0 on the calling goroutine, the others on goroutines joined before
// the period ends — then checks every edge is back to its initial token
// count. A failed worker must keep arriving at any barrier the others wait
// on; the lowest-indexed worker's error is reported, so the verdict is
// deterministic.
func (m *machine) run(periods, workers int, tag string, work func(period, w int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for p := 0; p < periods; p++ {
		wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				errs[w] = work(p, w)
			}(w)
		}
		errs[0] = work(p, 0)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for _, e := range m.g.Edges() {
			if es := &m.edges[e.ID]; es.count != e.Delay {
				return fmt.Errorf("%s period %d: edge %d ends with %d tokens, want %d",
					tag, p, e.ID, es.count, e.Delay)
			}
		}
	}
	return nil
}

// write stores edge e's next token (words cells, each tagged with the token
// value plus its word index) at the tail of its circular buffer.
func (m *machine) write(e sdf.EdgeID) {
	es := &m.edges[e]
	v := tokenValue(e, es.writes)
	base := es.offset + (es.writes*es.words)%es.size
	for w := int64(0); w < es.words; w++ {
		m.mem[base+w] = v + w
	}
	es.writes++
}

// read pops edge e's oldest token, verifying every word against the value
// written for it: the reads-th token ever produced carries
// tokenValue(e, reads).
func (m *machine) read(e sdf.EdgeID) error {
	es := &m.edges[e]
	want := tokenValue(e, es.reads)
	base := es.offset + (es.reads*es.words)%es.size
	for w := int64(0); w < es.words; w++ {
		if got := m.mem[base+w]; got != want+w {
			return fmt.Errorf("cell %d holds %d, want %d", base+w, got, want+w)
		}
	}
	es.reads++
	return nil
}

// tokenValue derives a unique, deterministic value for the n-th token ever
// produced on an edge, so that any cross-buffer clobbering is detected on
// consumption. Tokens are spaced 1024 apart so the per-word offsets of a
// vector token (value, value+1, ...) never collide with a neighbour.
func tokenValue(e sdf.EdgeID, n int64) int64 {
	return int64(e)*1_000_000_007 + (n+1)*1024
}

// claim takes ownership of edge e's cells in the ledger, failing if another
// live buffer holds any of them. Without the ledger it does nothing.
func (m *machine) claim(e sdf.EdgeID) error {
	if m.owner == nil {
		return nil
	}
	es := &m.edges[e]
	for c := es.offset; c < es.offset+es.size; c++ {
		if m.owner[c] != -1 && m.owner[c] != int(e) {
			return fmt.Errorf("buffer %d becoming live would clobber cell %d owned by buffer %d",
				e, c, m.owner[c])
		}
	}
	for c := es.offset; c < es.offset+es.size; c++ {
		m.owner[c] = int(e)
	}
	return nil
}

func (m *machine) release(e sdf.EdgeID) {
	if m.owner == nil {
		return
	}
	es := &m.edges[e]
	for c := es.offset; c < es.offset+es.size; c++ {
		if m.owner[c] == int(e) {
			m.owner[c] = -1
		}
	}
}

// fire executes one firing of an actor: consume from all inputs, then
// produce on all outputs, moving buffers in and out of the ledger as they
// drain and become live. In a phased run each edge's state is touched by at
// most one goroutine per phase (same-phase edges are intra-worker by
// construction) and cross-phase access is ordered by the barrier, so the
// plain field updates are race-free.
func (m *machine) fire(actor sdf.ActorID) error {
	g := m.g
	for _, eid := range g.In(actor) {
		e := g.Edge(eid)
		es := &m.edges[eid]
		if es.count < e.Cons {
			return fmt.Errorf("actor %s consumes %d from edge %d holding %d",
				g.Actor(actor).Name, e.Cons, eid, es.count)
		}
		for i := int64(0); i < e.Cons; i++ {
			if err := m.read(eid); err != nil {
				return fmt.Errorf("edge %d token %d corrupted: %w", eid, es.reads, err)
			}
		}
		es.count -= e.Cons
		if es.count == 0 && es.live {
			m.release(eid)
			es.live = false
		}
	}
	for _, eid := range g.Out(actor) {
		e := g.Edge(eid)
		es := &m.edges[eid]
		if !es.live {
			if err := m.claim(eid); err != nil {
				return fmt.Errorf("actor %s producing on edge %d: %w", g.Actor(actor).Name, eid, err)
			}
			es.live = true
		}
		for i := int64(0); i < e.Prod; i++ {
			m.write(eid)
		}
		es.count += e.Prod
	}
	return nil
}
