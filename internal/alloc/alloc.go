// Package alloc implements dynamic storage allocation (DSA) of buffer
// lifetimes into a single shared memory space (Sec. 9): the first-fit
// heuristic of Fig. 19 over an enumerated instance, with the two enumeration
// orders evaluated in the paper (by decreasing duration, "ffdur", and by
// start time, "ffstart"), plus a best-fit variant used for ablation.
package alloc

import (
	"fmt"

	"repro/internal/lifetime"
)

// Strategy selects the placement policy and enumeration order.
type Strategy int

const (
	// FirstFitDuration enumerates intervals by decreasing lifetime span and
	// places each at the lowest feasible address. The paper's best performer.
	FirstFitDuration Strategy = iota
	// FirstFitStart enumerates intervals by increasing start time.
	FirstFitStart
	// BestFitDuration places each interval (duration order) into the
	// feasible gap wasting the least space; ablation only.
	BestFitDuration
)

// String returns the paper's abbreviation for the strategy.
func (s Strategy) String() string {
	switch s {
	case FirstFitDuration:
		return "ffdur"
	case FirstFitStart:
		return "ffstart"
	case BestFitDuration:
		return "bfdur"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Placement is the allocation of one interval.
type Placement struct {
	Interval *lifetime.Interval
	Offset   int64
}

// Allocation is the result of storage allocation: a placement per interval
// and the total memory required.
type Allocation struct {
	Placements []Placement
	Total      int64
	// wig is the intersection graph of the enumerated instance, indexed like
	// Placements; Verify walks its adjacency instead of re-deriving the
	// pairwise intersection tests.
	wig *lifetime.WIG
}

// OffsetOf returns the assigned offset of the given interval.
func (a *Allocation) OffsetOf(iv *lifetime.Interval) (int64, bool) {
	for _, p := range a.Placements {
		if p.Interval == iv {
			return p.Offset, true
		}
	}
	return 0, false
}

// Layout is where every edge buffer sits in one memory image: the image
// extent plus, indexed by edge ID, each buffer's offset, size and lifetime
// interval (the interval supplies the buffer's name). It is the one placement
// decision the token simulator, the code generators and the runtime engines
// read, whether a sequential allocation or a segmented one made it.
type Layout struct {
	Intervals []*lifetime.Interval
	Offsets   []int64
	Sizes     []int64
	Total     int64
}

// NewLayout lays out a sequential allocation: intervals[e] is edge e's
// lifetime, a must place each of them, and a buffer's size is its
// interval's.
func NewLayout(a *Allocation, intervals []*lifetime.Interval) (*Layout, error) {
	at := make(map[*lifetime.Interval]int64, len(a.Placements))
	for _, p := range a.Placements {
		at[p.Interval] = p.Offset
	}
	l := &Layout{
		Intervals: intervals,
		Offsets:   make([]int64, len(intervals)),
		Sizes:     make([]int64, len(intervals)),
		Total:     a.Total,
	}
	for e, iv := range intervals {
		off, ok := at[iv]
		if !ok {
			return nil, fmt.Errorf("edge %d interval %s not in allocation", e, iv.Name)
		}
		l.Offsets[e], l.Sizes[e] = off, iv.Size
	}
	return l, nil
}

// memRange is a half-open occupied address range [Lo, Hi).
type memRange struct{ lo, hi int64 }

// Allocate packs the intervals into shared memory with the given strategy.
// The input slice is not modified.
func Allocate(intervals []*lifetime.Interval, strat Strategy) *Allocation {
	order := Enumerate(intervals, strat)
	return AllocateEnumerated(order, lifetime.BuildWIG(order), strat)
}

// Enumerate returns a copy of intervals in strat's enumeration order
// (decreasing duration for ffdur/bfdur, increasing start time for ffstart).
func Enumerate(intervals []*lifetime.Interval, strat Strategy) []*lifetime.Interval {
	order := append([]*lifetime.Interval(nil), intervals...)
	switch strat {
	case FirstFitStart:
		lifetime.SortByStart(order)
	case FirstFitDuration, BestFitDuration:
		lifetime.SortByDuration(order)
	}
	return order
}

// AllocateEnumerated packs an already-enumerated instance over its
// intersection graph. Both order and w are only read, so callers compiling a
// grid may share one (order, WIG) pair across every strategy with the same
// enumeration — ffdur and bfdur both enumerate by decreasing duration.
func AllocateEnumerated(order []*lifetime.Interval, w *lifetime.WIG, strat Strategy) *Allocation {
	offsets := make([]int64, len(order))
	placed := make([]bool, len(order))
	var total int64
	// One scratch list reused across intervals; each placed neighbor is
	// inserted at its sorted position, so no per-interval allocation or
	// comparison-sort pass is needed.
	busy := make([]memRange, 0, len(order))
	for i, iv := range order {
		busy = busy[:0]
		for _, j := range w.Adj[i] {
			if !placed[j] {
				continue
			}
			r := memRange{offsets[j], offsets[j] + order[j].Size}
			lo, hi := 0, len(busy)
			for lo < hi {
				mid := (lo + hi) / 2
				if busy[mid].lo <= r.lo {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			busy = append(busy, memRange{})
			copy(busy[lo+1:], busy[lo:])
			busy[lo] = r
		}
		var off int64
		if strat == BestFitDuration {
			off = bestFit(busy, iv.Size)
		} else {
			off = firstFit(busy, iv.Size)
		}
		offsets[i] = off
		placed[i] = true
		if off+iv.Size > total {
			total = off + iv.Size
		}
	}
	res := &Allocation{Total: total, Placements: make([]Placement, len(order)), wig: w}
	for i, iv := range order {
		res.Placements[i] = Placement{Interval: iv, Offset: offsets[i]}
	}
	return res
}

// firstFit returns the lowest address where size cells fit between the
// sorted busy ranges.
func firstFit(busy []memRange, size int64) int64 {
	var off int64
	for _, r := range busy {
		if off+size <= r.lo {
			break
		}
		if r.hi > off {
			off = r.hi
		}
	}
	return off
}

// bestFit returns the offset of the smallest gap between busy ranges that
// fits size, falling back to the end of the occupied space.
func bestFit(busy []memRange, size int64) int64 {
	var merged []memRange
	for _, r := range busy {
		if n := len(merged); n > 0 && r.lo <= merged[n-1].hi {
			if r.hi > merged[n-1].hi {
				merged[n-1].hi = r.hi
			}
			continue
		}
		merged = append(merged, r)
	}
	bestOff := int64(-1)
	var bestWaste int64
	var cur int64
	for _, r := range merged {
		if gap := r.lo - cur; gap >= size {
			if waste := gap - size; bestOff < 0 || waste < bestWaste {
				bestOff, bestWaste = cur, waste
			}
		}
		if r.hi > cur {
			cur = r.hi
		}
	}
	if bestOff >= 0 {
		return bestOff
	}
	return cur
}

// Verify checks that no two time-intersecting intervals overlap in memory.
// It returns nil for a feasible allocation. When the allocation carries its
// intersection graph the intersecting pairs are read off the adjacency lists
// (same pairs, same scan order); re-deriving them is the fallback for
// allocations assembled without one.
func (a *Allocation) Verify() error {
	if a.wig != nil && len(a.wig.Intervals) == len(a.Placements) {
		for i := range a.Placements {
			for _, j := range a.wig.Adj[i] {
				if j <= i {
					continue
				}
				if err := a.checkPair(i, j); err != nil {
					return err
				}
			}
		}
		return a.checkBounds()
	}
	for i := 0; i < len(a.Placements); i++ {
		for j := i + 1; j < len(a.Placements); j++ {
			if !lifetime.Intersects(a.Placements[i].Interval, a.Placements[j].Interval) {
				continue
			}
			if err := a.checkPair(i, j); err != nil {
				return err
			}
		}
	}
	return a.checkBounds()
}

// checkPair reports the memory-overlap error of the time-intersecting pair
// (i, j), or nil when their address ranges are disjoint.
func (a *Allocation) checkPair(i, j int) error {
	pi, pj := a.Placements[i], a.Placements[j]
	if pi.Offset < pj.Offset+pj.Interval.Size && pj.Offset < pi.Offset+pi.Interval.Size {
		return fmt.Errorf("alloc: %s @%d and %s @%d overlap in time and memory",
			pi.Interval.Name, pi.Offset, pj.Interval.Name, pj.Offset)
	}
	return nil
}

func (a *Allocation) checkBounds() error {
	for _, p := range a.Placements {
		if p.Offset < 0 || p.Offset+p.Interval.Size > a.Total {
			return fmt.Errorf("alloc: %s @%d exceeds total %d", p.Interval.Name, p.Offset, a.Total)
		}
	}
	return nil
}
