package runtime

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sdf"
)

// PhasedEngine executes a partitioned compilation result on P workers: each
// period runs the phased schedule with every worker firing its blocks
// concurrently and a cyclic barrier between phases. Worker 0 runs on the
// goroutine that calls RunPeriod; workers 1..P-1 are goroutines spawned and
// joined within the period. Buffers live in the segmented memory image
// (per-worker private segments plus one shared segment), so all cross-worker
// traffic is write-then-barrier-then-read and the run is race-free without
// any per-buffer locking.
//
// Because SDF semantics are deterministic, a PhasedEngine's observable
// behaviour — every firing's consumed and produced token values, and the
// queue contents reported by TokensOn — is bit-identical to the sequential
// Engine on the same graph, provided each supplied Fire is a pure function
// of its inputs. Fires are invoked from worker goroutines (one worker per
// actor, fixed for the whole run), so a Fire closure may keep per-actor
// state but must not share mutable state across actors.
type PhasedEngine struct {
	image
	part *partition.Partitioned
	bar  *par.Barrier
	errs []error // per worker, reused every period
	wg   sync.WaitGroup
}

// NewPhased builds a phased engine for a compilation result that carries a
// partitioned schedule and segmented allocation (compiled with
// Options.Partitions >= 2). Like New it supports scalar tokens only.
func NewPhased(res *core.Result, fires map[sdf.ActorID]Fire) (*PhasedEngine, error) {
	if res.Partition == nil || res.Segmented == nil {
		return nil, fmt.Errorf("runtime: result has no partitioned schedule (compile with Partitions >= 2)")
	}
	m, err := newImage(res.Graph, fires, &res.Segmented.Layout)
	if err != nil {
		return nil, err
	}
	part := res.Partition
	return &PhasedEngine{image: m, part: part, bar: par.NewBarrier(part.P), errs: make([]error, part.P)}, nil
}

// RunPeriod executes one complete schedule period: it spawns P-1 worker
// goroutines, runs worker 0 itself, and joins them all before returning. A
// worker that fails stops firing but keeps arriving at every barrier so the
// others complete deterministically, and the lowest-indexed worker's error
// is returned.
func (e *PhasedEngine) RunPeriod() error {
	clear(e.errs)
	e.wg.Add(len(e.errs))
	for w := 1; w < len(e.errs); w++ {
		go e.work(w)
	}
	e.work(0)
	e.wg.Wait()
	for _, err := range e.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// work runs worker w's blocks of every phase, arriving at the barrier after
// each phase.
func (e *PhasedEngine) work(w int) {
	defer e.wg.Done()
	for ph := 0; ph < e.part.NumPhases; ph++ {
		for _, blk := range e.part.Phases[ph].Workers[w] {
			if e.errs[w] != nil {
				break
			}
			if err := e.fire(blk.Actor, blk.Count); err != nil {
				e.errs[w] = fmt.Errorf("runtime: phase %d worker %d firing %s: %w",
					ph, w, e.g.Actor(blk.Actor).Name, err)
			}
		}
		e.bar.Await()
	}
}
