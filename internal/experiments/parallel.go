package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/sdf"
)

// ParallelPoint is one (system, worker count) cell of the parallel study: the
// phased schedule's shape and the memory price of segmenting the shared
// buffer image so P workers can fire concurrently.
type ParallelPoint struct {
	Workers int `json:"workers"`
	Phases  int `json:"phases"`
	// SegmentedTotal is the partitioned image extent; MemoryRatio divides it
	// by the sequential shared total (1.0 = parallelism for free, larger =
	// cells paid for concurrency).
	SegmentedTotal int64   `json:"segmented_total"`
	MemoryRatio    float64 `json:"memory_ratio"`
	// Imbalance is the heaviest worker's cost load over the mean load
	// (1.0 = perfectly balanced).
	Imbalance float64 `json:"imbalance"`
}

// ParallelRow is the memory-vs-P study for one system.
type ParallelRow struct {
	System      string          `json:"system"`
	SharedTotal int64           `json:"shared_total"`
	Points      []ParallelPoint `json:"points"`
}

// ParallelMemory compiles every system sequentially and at each worker count
// and reports how the segmented parallel image grows with P. Worker counts
// below 2 are skipped (they are the sequential baseline by definition).
func ParallelMemory(graphs []*sdf.Graph, workers []int) ([]ParallelRow, error) {
	var rows []ParallelRow
	for _, g := range graphs {
		seq, err := core.Compile(g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: parallel %s: %w", g.Name, err)
		}
		row := ParallelRow{System: g.Name, SharedTotal: seq.Metrics.SharedTotal}
		for _, p := range workers {
			if p < 2 {
				continue
			}
			res, err := core.Compile(g, core.Options{Partitions: p})
			if err != nil {
				return nil, fmt.Errorf("experiments: parallel %s/p%d: %w", g.Name, p, err)
			}
			if res.Partition == nil || res.Segmented == nil {
				continue // cyclic graphs compile with partitioning disabled
			}
			pt := ParallelPoint{
				Workers:        res.Partition.P,
				Phases:         res.Partition.NumPhases,
				SegmentedTotal: res.Segmented.Total,
			}
			if row.SharedTotal > 0 {
				pt.MemoryRatio = float64(pt.SegmentedTotal) / float64(row.SharedTotal)
			}
			var sum, max int64
			for _, l := range res.Partition.Load {
				sum += l
				if l > max {
					max = l
				}
			}
			if sum > 0 {
				pt.Imbalance = float64(max) * float64(res.Partition.P) / float64(sum)
			}
			row.Points = append(row.Points, pt)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatParallel renders the memory-vs-P table.
func FormatParallel(rows []ParallelRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %8s |", "system", "shared")
	if len(rows) > 0 {
		for _, pt := range rows[0].Points {
			fmt.Fprintf(&b, " %8s %6s %6s |", fmt.Sprintf("p%d.cells", pt.Workers), "ratio", "imbal")
		}
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s | %8d |", r.System, r.SharedTotal)
		for _, pt := range r.Points {
			fmt.Fprintf(&b, " %8d %6.2f %6.2f |", pt.SegmentedTotal, pt.MemoryRatio, pt.Imbalance)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SpeedupPoint is one timed worker count: wall time per period of the phased
// engine against the sequential engine on the same compilation.
type SpeedupPoint struct {
	Workers  int     `json:"workers"`
	WallNS   int64   `json:"wall_ns"`
	Speedup  float64 `json:"speedup"`
	Phases   int     `json:"phases"`
	Firings  int64   `json:"firings"`
	WorkIter int     `json:"work_iters_per_firing"`
}

// SpeedupRow is the speedup-vs-P study for one system.
type SpeedupRow struct {
	System string         `json:"system"`
	SeqNS  int64          `json:"seq_ns"`
	Points []SpeedupPoint `json:"points"`
}

// workFire builds actor behaviours that burn `work` iterations of floating
// point arithmetic per firing on top of the usual fold — a stand-in for real
// actor bodies, so the barrier overhead is weighed against computation the
// way a deployment would see it. Outputs stay a deterministic function of
// inputs; every engine gets its own closure set. Each closure allocates its
// output vectors once and returns them on every firing (the engines copy
// outputs into their image before the next firing), so the timings carry no
// garbage collection of the benchmark's own making.
func workFire(g *sdf.Graph, work int) map[sdf.ActorID]runtime.Fire {
	fires := make(map[sdf.ActorID]runtime.Fire, g.NumActors())
	for _, a := range g.Actors() {
		outs := make([][]float64, len(g.Out(a.ID)))
		for oi, eid := range g.Out(a.ID) {
			outs[oi] = make([]float64, g.Edge(eid).Prod)
		}
		fires[a.ID] = func(inputs [][]float64) [][]float64 {
			var acc float64
			for _, in := range inputs {
				for _, v := range in {
					acc += v
				}
			}
			x := acc + 1
			for k := 0; k < work; k++ {
				x = x*1.0000001 + 0.5
			}
			for _, vals := range outs {
				for i := range vals {
					vals[i] = x + float64(i)
				}
			}
			return outs
		}
	}
	return fires
}

// ParallelSpeedup times period execution of the sequential engine and of the
// phased engine at every worker count, with `work` arithmetic iterations per
// firing, re-running periods until each measurement spans the budget.
func ParallelSpeedup(g *sdf.Graph, workers []int, work int, budget time.Duration) (*SpeedupRow, error) {
	seq, err := core.Compile(g, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: speedup %s: %w", g.Name, err)
	}
	var firings int64
	for _, a := range g.Actors() {
		firings += seq.Repetitions.Q(a.ID)
	}
	seqEng, err := runtime.New(seq, workFire(g, work))
	if err != nil {
		return nil, err
	}
	row := &SpeedupRow{System: g.Name}
	row.SeqNS = timePeriods(budget, func() error { return seqEng.RunPeriod() })
	for _, p := range workers {
		if p < 2 {
			continue
		}
		res, err := core.Compile(g, core.Options{Partitions: p})
		if err != nil {
			return nil, fmt.Errorf("experiments: speedup %s/p%d: %w", g.Name, p, err)
		}
		if res.Partition == nil {
			continue // cyclic graphs compile with partitioning disabled
		}
		parEng, err := runtime.NewPhased(res, workFire(g, work))
		if err != nil {
			return nil, err
		}
		pt := SpeedupPoint{
			Workers:  res.Partition.P,
			Phases:   res.Partition.NumPhases,
			Firings:  firings,
			WorkIter: work,
		}
		pt.WallNS = timePeriods(budget, func() error { return parEng.RunPeriod() })
		if pt.WallNS > 0 {
			pt.Speedup = float64(row.SeqNS) / float64(pt.WallNS)
		}
		row.Points = append(row.Points, pt)
	}
	return row, nil
}

// timePeriods measures runPeriod's per-call wall time, doubling the period
// count until the measurement spans the budget. Engines carry state across
// periods, so calls are never discarded — warm-up is one period.
func timePeriods(budget time.Duration, runPeriod func() error) int64 {
	if err := runPeriod(); err != nil {
		panic(err)
	}
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := runPeriod(); err != nil {
				panic(err)
			}
		}
		elapsed := time.Since(start)
		if elapsed >= budget || n >= 1<<20 {
			return elapsed.Nanoseconds() / int64(n)
		}
		n *= 2
	}
}

// FormatSpeedup renders one system's speedup-vs-P measurements.
func FormatSpeedup(rows []*SpeedupRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s | %12s |", "system", "seq ns/per")
	if len(rows) > 0 {
		for _, pt := range rows[0].Points {
			fmt.Fprintf(&b, " %12s %7s |", fmt.Sprintf("p%d ns/per", pt.Workers), "speedup")
		}
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s | %12d |", r.System, r.SeqNS)
		for _, pt := range r.Points {
			fmt.Fprintf(&b, " %12d %7.2f |", pt.WallNS, pt.Speedup)
		}
		b.WriteString("\n")
	}
	return b.String()
}
