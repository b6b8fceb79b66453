package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/pass"
	"repro/internal/sdf"
)

// GridRequest is the body of POST /v1/grid: one graph compiled across many
// option sets in a single planned run. The planner dedups the entries into a
// prefix-sharing pass graph (repetitions once, each lexical order once per
// strategy, each schedule once per strategy×looping, ...), so a full
// configuration sweep costs O(distinct pass nodes) instead of O(entries ×
// pipeline length).
type GridRequest struct {
	// Graph is the SDF graph in .sdf text form, shared by every entry.
	Graph string `json:"graph"`
	// Entries are the option sets to compile the graph under; at most
	// Config.GridMaxEntries per request. Duplicate entries are legal and
	// share everything.
	Entries []CompileOptions `json:"entries"`
}

// GridEntryResult is one entry's outcome inside a GridResponse: either an
// artifact (with its content digest, fetchable via GET /v1/artifact) or a
// structured error. Failures are per-entry — one infeasible configuration
// does not fail its siblings.
type GridEntryResult struct {
	Digest   string          `json:"digest,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
	Artifact json.RawMessage `json:"artifact,omitempty"`
	Error    *APIError       `json:"error,omitempty"`
}

// GridResponse is the success body of POST /v1/grid. Results align with the
// request's Entries by index. PlannedNodes and NaiveNodes report the prefix
// sharing achieved for the entries that actually compiled (cache hits run no
// plan and count for neither).
type GridResponse struct {
	Results      []GridEntryResult `json:"results"`
	PlannedNodes int               `json:"planned_nodes"`
	NaiveNodes   int               `json:"naive_nodes"`
}

// parseGridRequest decodes and validates a grid-shaped body — shared by
// POST /v1/grid and POST /v1/jobs/grid, which differ only in their entry
// cap — returning the request, the canonical graph text, and the parsed
// graph.
func (s *Server) parseGridRequest(w http.ResponseWriter, r *http.Request, maxEntries int) (*GridRequest, string, *sdf.Graph, *APIError) {
	var req GridRequest
	if apiErr := s.decodeRequest(w, r, &req); apiErr != nil {
		return nil, "", nil, apiErr
	}
	if len(req.Entries) == 0 {
		return nil, "", nil, &APIError{
			Status: http.StatusBadRequest, Reason: "bad_request",
			Message: "grid request needs at least one entry",
		}
	}
	if len(req.Entries) > maxEntries {
		return nil, "", nil, &APIError{
			Status: http.StatusBadRequest, Reason: "bad_request",
			Message: fmt.Sprintf("grid request has %d entries, limit is %d", len(req.Entries), maxEntries),
		}
	}
	canonical, g, apiErr := canonicalGraph(req.Graph)
	if apiErr != nil {
		return nil, "", nil, apiErr
	}
	return &req, canonical, g, nil
}

// batchMiss is one deduplicated digest a grid batch must compile, and the
// entry indices waiting on it.
type batchMiss struct {
	norm    CompileOptions
	opts    core.Options
	digest  string
	entries []int
}

// settleFunc records entry i's terminal result: an artifact (Digest set) or
// a structured error. /v1/grid writes it into the response by index; a job
// completes its entry.
type settleFunc func(i int, r GridEntryResult)

// resolveEntries is the front half of every grid batch (POST /v1/grid and
// async jobs): normalize each entry, settle bad options and cache hits at
// once, and dedup the remaining misses by digest so identical entries
// compile once and share bytes.
func (s *Server) resolveEntries(canonical string, entries []CompileOptions, settle settleFunc) []*batchMiss {
	var (
		misses  []*batchMiss
		missFor = map[string]*batchMiss{}
	)
	for i, entry := range entries {
		norm, opts, err := CoreOptions(entry)
		if err != nil {
			settle(i, GridEntryResult{Error: &APIError{
				Status: http.StatusBadRequest, Reason: "bad_request",
				Message: fmt.Sprintf("options: %v", err),
			}})
			continue
		}
		digest := Digest(canonical, norm)
		if data, ok := s.cache.get(digest); ok {
			s.cacheHits.Inc()
			settle(i, GridEntryResult{Digest: digest, Cached: true, Artifact: data})
			continue
		}
		s.cacheMisses.Inc()
		m := missFor[digest]
		if m == nil {
			m = &batchMiss{norm: norm, opts: opts, digest: digest}
			missFor[digest] = m
			misses = append(misses, m)
		}
		m.entries = append(m.entries, i)
	}
	return misses
}

// runBatch is the back half of every grid batch: it compiles the misses as
// one prefix-shared plan on the caller's goroutine and, the moment a miss's
// pass leaf finishes (OnOutcome), caches its artifact and settles every
// entry behind it — so job pollers see progress while the plan still runs.
// A plan-time error (e.g. an inconsistent graph) or a panic anywhere in the
// passes settles every miss not yet settled with one classified error,
// exactly as a per-entry /v1/compile would report it. It returns the
// plan's node counts, zero when no plan ran.
func (s *Server) runBatch(g *sdf.Graph, canonical string, misses []*batchMiss, settle settleFunc) (planned, naive int) {
	if len(misses) == 0 {
		return 0, 0
	}
	// Points settle concurrently but each exactly once, so the flags need
	// no lock; they are read only after the plan's workers have drained.
	settled := make([]bool, len(misses))
	settleMiss := func(mi int, r GridEntryResult) {
		for _, i := range misses[mi].entries {
			settle(i, r)
		}
		settled[mi] = true
	}
	fail := func(err error) {
		apiErr := s.classifyCompileError(err)
		for mi := range misses {
			if !settled[mi] {
				settleMiss(mi, GridEntryResult{Error: apiErr})
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Errorf("service: pipeline panic: %v", r))
		}
	}()
	if s.testHookCompileStart != nil {
		s.testHookCompileStart()
	}
	points := make([]core.Options, len(misses))
	for i, m := range misses {
		points[i] = m.opts
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.CompileTimeout)
	defer cancel()
	s.gridRuns.Inc()
	// With a node store, loaded nodes emit no events, so
	// sdfd_grid_pass_nodes_total keeps counting only pass work that actually
	// executed; store reuse shows up in sdfd_nodestore_loads_total instead.
	plan, err := pass.NewPlan(g, points, pass.PlanConfig{
		GraphKey: Digest(canonical, CompileOptions{}),
		Store:    s.planStore(),
		OnEvent: func(e pass.Event) {
			if e.Enter {
				s.gridNodes.With(e.Kind.String()).Inc()
			}
		},
		OnOutcome: func(mi int, o pass.Outcome) {
			m := misses[mi]
			err := o.Err
			var data []byte
			if err == nil {
				data, err = ArtifactBytes(o.Result, m.norm)
			}
			if err != nil {
				settleMiss(mi, GridEntryResult{Error: s.classifyCompileError(err)})
				return
			}
			s.cache.put(m.digest, data)
			settleMiss(mi, GridEntryResult{Digest: m.digest, Artifact: data})
		},
	})
	if err != nil {
		fail(err)
		return 0, 0
	}
	plan.Run(ctx)
	stats := plan.Stats()
	s.countLoads(stats)
	for _, kc := range stats {
		planned += kc.Nodes
		naive += kc.Naive
	}
	if saved := naive - planned; saved > 0 {
		s.gridSaved.Add(float64(saved))
	}
	return planned, naive
}

// handleGrid compiles one graph across every entry's option set: the
// resolver settles option errors and cache hits, and the misses run as one
// batch on the admission pool. Request-level failures (unparseable graph,
// too many entries, admission shedding, request deadline) produce a non-2xx
// envelope; per-entry compile failures land inside the 200 response.
// Artifacts are cached under the same digests POST /v1/compile uses, so a
// grid request warms the single-compile cache and vice versa — also when
// the request itself has already answered 408.
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	req, canonical, g, apiErr := s.parseGridRequest(w, r, s.cfg.GridMaxEntries)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	out := &GridResponse{Results: make([]GridEntryResult, len(req.Entries))}
	settle := func(i int, res GridEntryResult) { out.Results[i] = res }
	if misses := s.resolveEntries(canonical, req.Entries, settle); len(misses) > 0 {
		done := make(chan struct{})
		batch := func() {
			defer close(done)
			out.PlannedNodes, out.NaiveNodes = s.runBatch(g, canonical, misses, settle)
		}
		if err := s.pool.TrySubmit(batch); err != nil {
			s.writeError(w, s.classifyCompileError(err))
			return
		}
		if apiErr := s.awaitWork(r, done, "the grid compilation"); apiErr != nil {
			s.writeError(w, apiErr)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// Grid POSTs one grid request: one graph compiled across many option sets
// in a single planned, prefix-shared run.
func (c *Client) Grid(req GridRequest) (*GridResponse, error) {
	var out GridResponse
	if err := c.post("/v1/grid", req, &out, "grid response"); err != nil {
		return nil, err
	}
	return &out, nil
}
