package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pass"
	"repro/internal/sdf"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload bypasses reads 0.
func layerUnits() map[string]string {
	u := map[string]string{
		"sim.ms":                    "ms",
		"sim.alloc_kb":              "KB",
		"plan.ms":                   "ms",
		"alloc.cells":               "cells",
		"lifetimes.intervals":       "count",
		"shared_cells":              "cells",
		"service.cache_hit_ratio":   "ratio",
		"service.overhead_ms":       "ms",
		"service.artifact_ms":       "ms",
		"nodestore.hit_ratio":       "ratio",
		"nodestore.get_us":          "us",
		"nodestore.put_us":          "us",
		"nodestore.bytes_written":   "B/req",
		"plan.executed_nodes":       "count/req",
		"plan.loaded_nodes":         "count/req",
		"edit.hit_ms":               "ms",
		"edit.rename_ms":            "ms",
		"edit.option_ms":            "ms",
		"edit.structural_ms":        "ms",
		"edit.grid_ms":              "ms",
		"partition.phases":          "count",
		"segalloc.cells":            "cells",
		"runtime.allocs_per_period": "count",
		"codegen.ms":                "ms",
		"cc.build_ms":               "ms",
		"gen_c_ns_per_firing":       "ns",
		"gen_c_p2_ns_per_firing":    "ns",
		"engine_ns_per_firing":      "ns",
		"engine_p2_ns_per_firing":   "ns",
		"parallel_cells_ratio_p2":   "ratio",
		"traced.p50_ms":             "ms",
		"traced.p99_ms":             "ms",
		"traced.ops_per_s":          "1/s",
	}
	for _, k := range pass.Kinds() {
		u[k.String()+".ms"] = "ms"
		u[k.String()+".alloc_kb"] = "KB"
	}
	for _, g := range runGraphs() {
		for _, ex := range executors {
			u[g.Name+"."+ex.metric] = "ns"
		}
		u[g.Name+".cells"] = "cells"
		u[g.Name+".p2_cells"] = "cells"
	}
	return u
}

// newLayers returns every per-layer metric set to 0.
func newLayers() map[string]metric {
	out := map[string]metric{}
	for name, unit := range layerUnits() {
		out[name] = metric{Unit: unit}
	}
	return out
}

func setLayer(ls map[string]metric, name string, v float64) {
	m, ok := ls[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m.Value = v
	ls[name] = m
}

// fillPassLayers sets <kind>.ms and <kind>.alloc_kb for every pass kind,
// plus sim and plan-executor self time, as means over plans executions.
func fillPassLayers(ls map[string]metric, tr *tracer, plans int) {
	if plans == 0 {
		return
	}
	lt := tr.totals()
	n := float64(plans)
	for _, k := range pass.Kinds() {
		setLayer(ls, k.String()+".ms", ms(lt.self[k.String()])/n)
		setLayer(ls, k.String()+".alloc_kb", float64(lt.alloc[k.String()])/1024/n)
	}
	setLayer(ls, "sim.ms", ms(lt.self["sim"])/n)
	setLayer(ls, "sim.alloc_kb", float64(lt.alloc["sim"])/1024/n)
	setLayer(ls, "plan.ms", ms(lt.self["plan.new"]+lt.self["plan.run"])/n)
}

// runPlan builds and runs a pass.Plan for points on g with one span per
// executed pass node (named by pass.Kind) under a plan.run span, all
// children of parent in operation req. With a nil tracer it still runs
// the plan, untimed.
func runPlan(ctx context.Context, tr *tracer, parent, req int64, g *sdf.Graph, points []pass.Options, store pass.Store) (*pass.Plan, []pass.Outcome, error) {
	var (
		mu    sync.Mutex
		open  = map[string]int64{}
		runID int64
	)
	cfg := pass.PlanConfig{Store: store}
	if tr != nil {
		cfg.OnEvent = func(e pass.Event) {
			key := e.Kind.String() + "\x00" + string(e.Key)
			if e.Enter {
				id := tr.begin(e.Kind.String(), runID, req)
				mu.Lock()
				open[key] = id
				mu.Unlock()
				return
			}
			mu.Lock()
			id := open[key]
			delete(open, key)
			mu.Unlock()
			tr.end(id)
		}
	}
	id := tr.begin("plan.new", parent, req)
	p, err := pass.NewPlan(g, points, cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	runID = tr.begin("plan.run", parent, req)
	outs := p.Run(ctx)
	tr.end(runID)
	return p, outs, nil
}

// timedStore wraps a pass.Store, timing every Get and Put and counting
// hits and misses. It is how the per-layer nodestore numbers are measured
// from outside the store.
type timedStore struct {
	inner        pass.Store
	getNs, putNs atomic.Int64
	gets, puts   atomic.Int64
	hits, misses atomic.Int64
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := s.inner.Get(key)
	s.getNs.Add(int64(time.Since(t0)))
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return data, ok
}

func (s *timedStore) Put(key string, data []byte) {
	t0 := time.Now()
	s.inner.Put(key, data)
	s.putNs.Add(int64(time.Since(t0)))
	s.puts.Add(1)
}
