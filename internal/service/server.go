// Package service turns the shared-memory SDF synthesis pipeline into a
// long-running compilation service: a net/http API over the Fig. 21 flow
// (graph -> APGAN/RPMC -> loop DP -> lifetimes -> allocation -> C/VHDL)
// with a content-addressed compile cache, request coalescing, admission
// control, and Prometheus-format metrics. cmd/sdfd is the daemon wrapper;
// docs/SERVICE.md documents the HTTP API and the operational knobs.
//
// Determinism note: the service deliberately lives *outside* the
// bannedcall deterministic-core package list — a server needs wall clocks
// for latency metrics and deadlines. All compilation work still happens in
// the linted core, which is what makes artifacts for one digest
// byte-identical no matter which worker, flight, or process produced them.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/nodestore"
	"repro/internal/par"
	"repro/internal/pass"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/service/metrics"
)

// Config holds the operational knobs of a compile server. The zero value of
// every field selects a production-reasonable default (see each field).
type Config struct {
	// Workers is the size of the compile worker pool. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted compilations may wait for a
	// worker; submissions beyond it are shed with 429. Default 2×Workers.
	QueueDepth int
	// CacheBudget is the artifact cache size in bytes. Negative disables
	// caching; 0 means the 64 MiB default.
	CacheBudget int64
	// RequestTimeout bounds how long one HTTP request waits for its
	// artifact (queue time included) before 408. Default 30s.
	RequestTimeout time.Duration
	// CompileTimeout bounds one pipeline run, enforced via
	// core.CompileGeneralContext stage deadlines. Default 60s.
	CompileTimeout time.Duration
	// MaxRequestBytes bounds the request body. Default 1 MiB.
	MaxRequestBytes int64
	// RetryAfter is the Retry-After hint on 429/503 responses. Default 1s.
	RetryAfter time.Duration
	// GridMaxEntries bounds how many option sets one POST /v1/grid request
	// may carry. Default 64.
	GridMaxEntries int
	// MaxJobs bounds concurrently running async grid jobs; submissions
	// beyond it are shed with 429. Default 8.
	MaxJobs int
	// JobMaxEntries bounds how many option sets one POST /v1/jobs/grid
	// request may carry. Async jobs exist precisely for sweeps too large to
	// hold a /v1/grid connection open, so the default is much higher: 4096.
	JobMaxEntries int
	// Cluster, when non-nil, makes this server one member of a sharded sdfd
	// cluster: compile requests route to their digest's ring owner, cache
	// misses attempt peer fetch before recompiling, and async jobs dispatch
	// their entries across the membership (docs/SERVICE.md, "Cluster
	// mode"). Nil runs the classic single-node daemon.
	Cluster *ClusterConfig
	// NodeStore is an already-opened persistent pass-node store
	// (internal/nodestore). When non-nil, /v1/compile and /v1/grid consult
	// it before executing each pass node and publish freshly computed
	// artifacts into it, so recompilations after small edits reuse every
	// unaffected stage across requests AND daemon restarts. Nil disables
	// store-assisted compilation. The caller owns the store's lifetime;
	// cmd/sdfd opens it from -store / -store-mb.
	NodeStore *nodestore.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CompileTimeout <= 0 {
		c.CompileTimeout = 60 * time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.GridMaxEntries <= 0 {
		c.GridMaxEntries = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 8
	}
	if c.JobMaxEntries <= 0 {
		c.JobMaxEntries = 4096
	}
	return c
}

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	// Graph is the SDF graph in .sdf text form (docs/SERVICE.md).
	Graph string `json:"graph"`
	// Options selects the pipeline configuration; zero values are the
	// paper's recommended defaults.
	Options CompileOptions `json:"options"`
}

// CompileResponse is the success body of POST /v1/compile.
type CompileResponse struct {
	// Digest is the content address of Artifact; GET /v1/artifact/{digest}
	// returns exactly these bytes for as long as the entry stays cached.
	Digest string `json:"digest"`
	// Cached is true when the artifact came straight from the cache;
	// Coalesced when this request piggy-backed on another request's
	// in-flight compilation.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Verified is true when ?verify=1 ran the stage-by-stage invariant
	// oracle over this compilation.
	Verified bool            `json:"verified,omitempty"`
	Artifact json.RawMessage `json:"artifact"`
}

// APIError is the structured error body every non-2xx response carries
// (wrapped as {"error": {...}}).
type APIError struct {
	// Status is the HTTP status code.
	Status int `json:"status"`
	// Reason is a stable machine-readable cause: bad_request, not_found,
	// too_large, compile_failed, verify_failed, deadline, queue_full,
	// shutting_down.
	Reason  string `json:"reason"`
	Message string `json:"message"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// Error implements the error interface (the client returns *APIError).
func (e *APIError) Error() string {
	return fmt.Sprintf("sdfd: %d %s: %s", e.Status, e.Reason, e.Message)
}

// Server is a compile service instance. Create with New, expose via
// Handler, stop with Close.
type Server struct {
	cfg     Config
	pool    *par.Pool
	cache   *artifactCache
	flights *flightGroup
	start   time.Time

	baseCtx context.Context
	stop    context.CancelFunc

	// cluster is nil on a single-node server. clusterWG tracks the health
	// monitor goroutine.
	cluster   *clusterNode
	clusterWG sync.WaitGroup

	// jobs holds async grid jobs; jobsWG tracks their runner goroutines so
	// a graceful drain can wait for in-flight jobs (AwaitJobs). draining
	// gates new work while those jobs finish.
	jobs     *jobStore
	jobsWG   sync.WaitGroup
	draining atomic.Bool

	reg          *metrics.Registry
	reqs         *metrics.CounterVec
	reqSeconds   *metrics.HistogramVec
	reqLatency   *metrics.SummaryVec
	stageSeconds *metrics.HistogramVec
	cacheHits    *metrics.Counter
	cacheMisses  *metrics.Counter
	pipelineRuns *metrics.Counter
	shed         *metrics.CounterVec
	gridRuns     *metrics.Counter
	gridNodes    *metrics.CounterVec
	gridSaved    *metrics.Counter
	storeLoads   *metrics.CounterVec
	jobEntries   *metrics.CounterVec

	// testHookCompileStart, when set, runs at the start of every pipeline
	// job (inside the worker). Tests use it to hold workers busy so the
	// load-shedding and deadline paths become deterministic.
	testHookCompileStart func()
}

// New builds a Server from cfg (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		pool:    par.NewPool(cfg.Workers, cfg.QueueDepth),
		cache:   newArtifactCache(cfg.CacheBudget),
		flights: newFlightGroup(),
		start:   time.Now(),
		baseCtx: ctx,
		stop:    cancel,
		jobs:    newJobStore(),
		reg:     metrics.NewRegistry(),
	}
	s.reqs = s.reg.CounterVec("sdfd_http_requests_total",
		"HTTP requests by route and status code", "route", "code")
	s.reqSeconds = s.reg.HistogramVec("sdfd_request_seconds",
		"end-to-end request latency by route", metrics.DefLatencyBuckets, "route")
	s.reqLatency = s.reg.SummaryVec("sdfd_request_latency_seconds",
		"end-to-end request latency quantiles by route (hdr-backed; directly comparable to sdfload's client-side percentiles)",
		"route")
	s.stageSeconds = s.reg.HistogramVec("sdfd_stage_seconds",
		"pipeline stage latency (schedule, loopdp, lifetime, alloc, verify, merge, codegen)",
		metrics.DefLatencyBuckets, "stage")
	s.cacheHits = s.reg.Counter("sdfd_cache_hits_total", "compile cache hits")
	s.cacheMisses = s.reg.Counter("sdfd_cache_misses_total", "compile cache misses")
	s.pipelineRuns = s.reg.Counter("sdfd_pipeline_runs_total",
		"actual pipeline executions (misses that were not coalesced)")
	s.shed = s.reg.CounterVec("sdfd_load_shed_total",
		"requests shed by the admission layer, by reason", "reason")
	s.gridRuns = s.reg.Counter("sdfd_grid_runs_total",
		"planned grid executions (POST /v1/grid requests that ran a plan)")
	s.gridNodes = s.reg.CounterVec("sdfd_grid_pass_nodes_total",
		"pass nodes executed by grid plans, by pass kind", "kind")
	s.gridSaved = s.reg.Counter("sdfd_grid_shared_nodes_total",
		"pass executions avoided by grid prefix sharing (naive minus planned)")
	s.jobEntries = s.reg.CounterVec("sdfd_job_entries_total",
		"async grid job entries reaching a terminal state, by state (ok, error)", "state")
	s.reg.GaugeFunc("sdfd_jobs_inflight", "async grid jobs currently running",
		func() float64 { return float64(s.jobs.inflight()) })
	s.reg.GaugeFunc("sdfd_queue_depth", "admitted compilations waiting for a worker",
		func() float64 { return float64(s.pool.Queued()) })
	s.reg.GaugeFunc("sdfd_cache_entries", "artifacts currently cached",
		func() float64 { n, _ := s.cache.stats(); return float64(n) })
	s.reg.GaugeFunc("sdfd_cache_bytes", "artifact cache footprint in bytes",
		func() float64 { _, b := s.cache.stats(); return float64(b) })
	if ns := cfg.NodeStore; ns != nil {
		s.storeLoads = s.reg.CounterVec("sdfd_nodestore_loads_total",
			"pass nodes loaded from the persistent store instead of executed, by pass kind", "kind")
		s.reg.GaugeFunc("sdfd_nodestore_hits_total", "persistent pass-node store hits",
			func() float64 { return float64(ns.Stats().Hits) })
		s.reg.GaugeFunc("sdfd_nodestore_misses_total", "persistent pass-node store misses",
			func() float64 { return float64(ns.Stats().Misses) })
		s.reg.GaugeFunc("sdfd_nodestore_evictions_total", "persistent pass-node store frames evicted for budget",
			func() float64 { return float64(ns.Stats().Evictions) })
		s.reg.GaugeFunc("sdfd_nodestore_corrupt_total", "persistent pass-node store frames dropped as corrupt",
			func() float64 { return float64(ns.Stats().Corrupt) })
		s.reg.GaugeFunc("sdfd_nodestore_entries", "persistent pass-node store frames on disk",
			func() float64 { return float64(ns.Stats().Entries) })
		s.reg.GaugeFunc("sdfd_nodestore_bytes", "persistent pass-node store footprint in bytes",
			func() float64 { return float64(ns.Stats().Bytes) })
	}
	if cfg.Cluster != nil {
		cn := newClusterNode(*cfg.Cluster, s.reg)
		s.cluster = cn
		s.reg.GaugeFunc("sdfd_ring_owned_fraction",
			"fraction of the digest keyspace this node effectively owns (alive-gated; rises when peers die)",
			cn.ownedFraction)
		s.reg.GaugeFunc("sdfd_cluster_peers_alive", "peers whose last healthz probe succeeded",
			func() float64 { return float64(cn.mon.AliveCount()) })
		s.clusterWG.Add(1)
		go func() {
			defer s.clusterWG.Done()
			cn.mon.Run(s.baseCtx)
		}()
	}
	return s
}

// planStore returns the node store as the pass.Store interface, or a nil
// interface when the store is disabled (a typed-nil *nodestore.Store inside
// a non-nil interface would defeat the planner's nil check).
func (s *Server) planStore() pass.Store {
	if s.cfg.NodeStore == nil {
		return nil
	}
	return s.cfg.NodeStore
}

// stageEvents adapts plan node events into the stage latency histogram for
// single compiles: each executed node's enter/leave pair is timed under its
// stage name. Loaded nodes emit no events and so
// cost no observations — the histogram keeps meaning "the pipeline actually
// did this work".
func (s *Server) stageEvents() func(pass.Event) {
	var mu sync.Mutex
	starts := map[string]time.Time{}
	return func(e pass.Event) {
		key := e.Kind.String() + "\x00" + string(e.Key)
		if e.Enter {
			mu.Lock()
			starts[key] = time.Now()
			mu.Unlock()
			return
		}
		mu.Lock()
		t0, ok := starts[key]
		delete(starts, key)
		mu.Unlock()
		if ok {
			s.stageSeconds.With(stageOfKind(e.Kind)).Observe(time.Since(t0).Seconds())
		}
	}
}

// countLoads feeds post-run plan stats into the store-load counter.
func (s *Server) countLoads(stats []pass.KindCount) {
	if s.storeLoads == nil {
		return
	}
	for _, kc := range stats {
		if kc.Loaded > 0 {
			s.storeLoads.With(kc.Kind.String()).Add(float64(kc.Loaded))
		}
	}
}

// stageOfKind maps plan node kinds onto the pipeline stage names that label
// the sdfd_stage_seconds series (repetitions+order together form the
// schedule stage; the assemble node covers selection, verify, and merge).
func stageOfKind(k pass.Kind) string {
	switch k {
	case pass.KindRepetitions, pass.KindOrder:
		return core.StageSchedule
	case pass.KindSchedule:
		return core.StageLoopDP
	case pass.KindLifetimes:
		return core.StageLifetime
	case pass.KindAlloc:
		return core.StageAlloc
	case pass.KindPartition:
		return core.StagePartition
	case pass.KindSegalloc:
		return core.StageSegments
	case pass.KindAssemble:
		return "assemble"
	default:
		return "unknown"
	}
}

// BeginDrain puts the server into draining mode: new compile, grid, and
// job submissions are refused with the 503 shutting_down envelope, and
// /healthz reports 503 so peers' health probes rotate this node out of the
// ring. Already-running async jobs keep executing — pair with AwaitJobs to
// give them a grace period, then Close. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// AwaitJobs blocks until every in-flight async job runner has finished or
// ctx expires (returning ctx's error in that case). The drain sequence in
// cmd/sdfd is BeginDrain -> AwaitJobs(deadline) -> Close.
func (s *Server) AwaitJobs(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting work, cancels in-flight compilations' contexts (job
// runners see the cancellation and complete their remaining entries with
// shutdown errors), and waits for the worker pool, job runners, and the
// cluster health monitor to stop.
func (s *Server) Close() {
	s.stop()
	s.pool.Close()
	s.jobsWG.Wait()
	s.clusterWG.Wait()
}

// Registry exposes the server's metrics registry (also served on /metrics).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the HTTP API:
//
//	POST /v1/compile                   compile (or fetch from cache) a graph
//	POST /v1/grid                      compile one graph across many option sets
//	POST /v1/jobs/grid                 submit an async grid job (202 + job resource)
//	GET  /v1/jobs/{id}                 poll / long-poll a job (?wait=, ?offset=, ?limit=)
//	GET  /v1/artifact/{digest}         re-fetch a cached artifact by digest
//	GET  /v1/peer/artifact/{digest}    internal peer cache API (integrity headers)
//	GET  /healthz                      liveness probe (503 while draining)
//	GET  /metrics                      Prometheus text metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", s.instrument("compile", s.handleCompile))
	mux.HandleFunc("POST /v1/grid", s.instrument("grid", s.handleGrid))
	mux.HandleFunc("POST /v1/jobs/grid", s.instrument("jobs_submit", s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs_get", s.handleJobGet))
	mux.HandleFunc("GET /v1/artifact/{digest}", s.instrument("artifact", s.handleArtifact))
	mux.HandleFunc("GET /v1/peer/artifact/{digest}", s.instrument("peer_artifact", s.handlePeerArtifact))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// statusWriter records the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start).Seconds()
		s.reqSeconds.With(route).Observe(elapsed)
		s.reqLatency.With(route).Observe(elapsed)
		s.reqs.With(route, strconv.Itoa(sw.code)).Inc()
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, apiErr *APIError) {
	if apiErr.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(apiErr.RetryAfterSeconds))
	}
	s.writeJSON(w, apiErr.Status, map[string]*APIError{"error": apiErr})
}

func (s *Server) retryAfterSeconds() int {
	sec := int(s.cfg.RetryAfter / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// 503 rotates this node out of peers' rings (healthz-gated
		// membership) while the drain grace period runs down.
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":         "draining",
			"uptime_seconds": int64(time.Since(s.start).Seconds()),
		})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	data, ok := s.cache.get(digest)
	if !ok && s.cluster != nil {
		// Cluster cache miss: the digest's shard very likely lives on a
		// peer. Peer fetch re-verifies integrity against the wire checksum
		// before the bytes enter this node's cache.
		if fetched, peer, hit := s.cluster.fetchArtifact(r.Context(), digest); hit {
			s.cache.put(digest, fetched)
			w.Header().Set(servedByHeader, peer)
			data, ok = fetched, true
		}
	}
	if !ok {
		s.writeError(w, &APIError{
			Status: http.StatusNotFound, Reason: "not_found",
			Message: fmt.Sprintf("no cached artifact for digest %s (it may have been evicted; re-POST /v1/compile)", digest),
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Sdfd-Digest", digest)
	_, _ = w.Write(data)
}

// parseCompileRequest decodes and validates the request, returning the
// parsed graph, its canonical text, normalized options, and the content
// digest.
func (s *Server) parseCompileRequest(w http.ResponseWriter, r *http.Request) (*sdf.Graph, string, CompileOptions, string, *APIError) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	var req CompileRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, "", CompileOptions{}, "", &APIError{
				Status: http.StatusRequestEntityTooLarge, Reason: "too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxRequestBytes),
			}
		}
		return nil, "", CompileOptions{}, "", &APIError{
			Status: http.StatusBadRequest, Reason: "bad_request",
			Message: fmt.Sprintf("decoding request: %v", err),
		}
	}
	canonical, err := sdfio.Canonicalize(req.Graph)
	if err != nil {
		return nil, "", CompileOptions{}, "", &APIError{
			Status: http.StatusBadRequest, Reason: "bad_request",
			Message: fmt.Sprintf("parsing graph: %v", err),
		}
	}
	g, err := sdfio.Parse(strings.NewReader(canonical))
	if err != nil {
		// Canonical text always re-parses; this is unreachable short of a
		// serializer bug, but fail loudly rather than compile garbage.
		return nil, "", CompileOptions{}, "", &APIError{
			Status: http.StatusInternalServerError, Reason: "bad_request",
			Message: fmt.Sprintf("re-parsing canonical graph: %v", err),
		}
	}
	norm, err := normalize(req.Options)
	if err != nil {
		return nil, "", CompileOptions{}, "", &APIError{
			Status: http.StatusBadRequest, Reason: "bad_request",
			Message: fmt.Sprintf("options: %v", err),
		}
	}
	return g, canonical, norm, Digest(canonical, norm), nil
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.shed.With("shutting_down").Inc()
		s.writeError(w, &APIError{
			Status: http.StatusServiceUnavailable, Reason: "shutting_down",
			Message:           "server is shutting down",
			RetryAfterSeconds: s.retryAfterSeconds(),
		})
		return
	}
	g, canonical, norm, digest, apiErr := s.parseCompileRequest(w, r)
	if apiErr != nil {
		s.writeError(w, apiErr)
		return
	}
	verify := r.URL.Query().Get("verify") == "1"

	// Warm path: cache hit, no pipeline, no queueing. Content addressing
	// makes serving from the local cache correct on any cluster member —
	// one digest is one byte sequence no matter who compiled it.
	// Verification always recompiles (the oracle needs the in-memory
	// result), so it skips this.
	if !verify {
		if data, ok := s.cache.get(digest); ok {
			s.cacheHits.Inc()
			s.writeJSON(w, http.StatusOK, &CompileResponse{
				Digest: digest, Cached: true, Artifact: data,
			})
			return
		}
		s.cacheMisses.Inc()
	}

	// Cluster routing, for cold plain compiles only (verify stays local —
	// the oracle wants this node's own pipeline). Requests a peer already
	// routed carry the forwarded marker and must be served here.
	if cn := s.cluster; cn != nil && !verify && r.Header.Get(forwardedHeader) == "" {
		if owner := cn.ownerOf(digest); owner != cn.cfg.Self {
			// Wrong peer: proxy to the owner so its shard of the cache does
			// the work. A non-definitive answer (owner died, is shedding,
			// or is draining) degrades to compiling locally below.
			if cn.proxyCompile(w, r, owner, canonical, norm, s.cfg.RequestTimeout) {
				return
			}
		} else if data, peer, ok := cn.fetchArtifact(r.Context(), digest); ok {
			// This node owns the digest but is cold (restart, membership
			// change): a ranked fallback may still hold the artifact.
			// Integrity was re-verified against the wire checksum.
			s.cache.put(digest, data)
			w.Header().Set(servedByHeader, peer)
			s.writeJSON(w, http.StatusOK, &CompileResponse{
				Digest: digest, Cached: true, Artifact: data,
			})
			return
		}
	}

	// Cold path: join (or open) the flight for this digest. Verifying
	// flights are keyed separately so a plain request never waits on the
	// slower compile+oracle run of a concurrent verify request.
	key := digest
	if verify {
		key = "verify:" + digest
	}
	f, leader := s.flights.join(key)
	if leader {
		job := func() { s.runCompileJob(key, f, g, norm, digest, verify) }
		if err := s.pool.TrySubmit(job); err != nil {
			// The flight never started: fail it so concurrent joiners see
			// the same shed instead of waiting forever.
			s.flights.finish(key, f, nil, err)
		}
	}

	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	select {
	case <-f.done:
	case <-ctx.Done():
		s.shed.With("deadline").Inc()
		s.writeError(w, &APIError{
			Status: http.StatusRequestTimeout, Reason: "deadline",
			Message: fmt.Sprintf("request deadline expired after %v while waiting for compilation (the compile itself may still complete and populate the cache)", s.cfg.RequestTimeout),
		})
		return
	}
	if f.err != nil {
		s.writeError(w, s.classifyCompileError(f.err))
		return
	}
	s.writeJSON(w, http.StatusOK, &CompileResponse{
		Digest: digest, Cached: false, Coalesced: !leader, Verified: verify,
		Artifact: f.data,
	})
}

// runCompileJob executes one pipeline run inside a worker: compile with the
// server-side deadline, optionally run the invariant oracle, insert the
// complete artifact into the cache, and publish the outcome to every
// request waiting on the flight. Cache insertion happens only on full
// success — a deadline, compile error, or oracle violation leaves no entry.
func (s *Server) runCompileJob(key string, f *flight, g *sdf.Graph, norm CompileOptions, digest string, verify bool) {
	if s.testHookCompileStart != nil {
		s.testHookCompileStart()
	}
	data, err := func() (data []byte, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("service: pipeline panic: %v", r)
			}
		}()
		// A request that missed the cache can become leader of a fresh
		// flight just after the previous leader finished and cached; the
		// re-check here keeps "one pipeline run per digest" exact instead
		// of merely likely.
		if !verify {
			if cached, ok := s.cache.get(digest); ok {
				return cached, nil
			}
		}
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.CompileTimeout)
		defer cancel()
		s.pipelineRuns.Inc()
		data, res, err := s.compileArtifact(ctx, g, norm)
		if err != nil {
			return nil, err
		}
		if verify {
			if verr := check.Pipeline(res, check.Options{}); verr != nil {
				return nil, fmt.Errorf("%w: %w", errVerifyFailed, verr)
			}
			// The digest contract says one digest -> one byte sequence. If
			// a cached artifact exists it must match the fresh compile;
			// anything else is cache poisoning or lost determinism.
			if cached, ok := s.cache.get(digest); ok && !bytes.Equal(cached, data) {
				return nil, fmt.Errorf("%w: cached artifact for digest %s differs from recompilation", errVerifyFailed, digest)
			}
		}
		s.cache.put(digest, data)
		return data, nil
	}()
	s.flights.finish(key, f, data, err)
}

// compileArtifact runs one normalized compilation as a single-point plan.
// With a node store the plan probes the store before each pass and
// publishes after (warm stages are loaded, not executed). Either way the
// artifact renders through the one encoder, so the bytes for a digest do
// not depend on the store — or on which process lifetime produced them.
func (s *Server) compileArtifact(ctx context.Context, g *sdf.Graph, norm CompileOptions) ([]byte, *core.Result, error) {
	copts, err := coreOptions(norm)
	if err != nil {
		return nil, nil, err
	}
	p, err := pass.NewPlan(g, []core.Options{copts}, pass.PlanConfig{
		Store:   s.planStore(),
		OnEvent: s.stageEvents(),
	})
	if err != nil {
		return nil, nil, err
	}
	outs := p.Run(ctx)
	s.countLoads(p.Stats())
	if outs[0].Err != nil {
		return nil, nil, outs[0].Err
	}
	data, err := ArtifactBytes(outs[0].Result, norm)
	if err != nil {
		return nil, nil, err
	}
	return data, outs[0].Result, nil
}

var errVerifyFailed = errors.New("verification failed")

// classifyCompileError maps a flight failure onto the structured error
// vocabulary: admission shedding (429/503), deadlines (408), oracle
// violations (500), and everything else — inconsistent graphs, deadlocks,
// overflow, infeasible allocations — as 422 compile_failed.
func (s *Server) classifyCompileError(err error) *APIError {
	switch {
	case errors.Is(err, par.ErrPoolFull):
		s.shed.With("queue_full").Inc()
		return &APIError{
			Status: http.StatusTooManyRequests, Reason: "queue_full",
			Message:           fmt.Sprintf("compile queue is full (%d queued, %d workers); retry shortly", s.cfg.QueueDepth, s.cfg.Workers),
			RetryAfterSeconds: s.retryAfterSeconds(),
		}
	case errors.Is(err, par.ErrPoolClosed) || errors.Is(err, context.Canceled):
		s.shed.With("shutting_down").Inc()
		return &APIError{
			Status: http.StatusServiceUnavailable, Reason: "shutting_down",
			Message:           "server is shutting down",
			RetryAfterSeconds: s.retryAfterSeconds(),
		}
	case errors.Is(err, context.DeadlineExceeded):
		s.shed.With("deadline").Inc()
		return &APIError{
			Status: http.StatusRequestTimeout, Reason: "deadline",
			Message: fmt.Sprintf("compilation exceeded the server's %v compile deadline: %v", s.cfg.CompileTimeout, err),
		}
	case errors.Is(err, errVerifyFailed):
		return &APIError{
			Status: http.StatusInternalServerError, Reason: "verify_failed",
			Message: err.Error(),
		}
	default:
		return &APIError{
			Status: http.StatusUnprocessableEntity, Reason: "compile_failed",
			Message: err.Error(),
		}
	}
}
