package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/nodestore"
	"repro/internal/pass"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/service"
)

// editClass is the kind of one design-loop request.
type editClass int

const (
	// hitClass re-sends an earlier request verbatim: an artifact-cache hit.
	hitClass editClass = iota
	// renameClass renames one actor of a graph the store already holds:
	// every pass loads from the store and only assembly runs.
	renameClass
	// optionClass changes the looping algorithm or the allocators of the
	// current graph: the passes from the changed one onward run.
	optionClass
	// structuralClass changes one edge's delay or rates: a delay edit runs
	// the order pass onward, a rate edit the whole pipeline.
	structuralClass
	// gridClass posts a 24-point /v1/grid sweep of the current graph.
	gridClass
	numEditClasses
)

var editClassNames = [numEditClasses]string{"hit", "rename", "option", "structural", "grid"}

// editWeights is the request mix, as counts in a deck of 39 cards. It is
// the default mix of the repository's load harness, sdfload -mix 1,6,2,1
// (cold, warm, edit, grid), over 40 of its operations: 4 cold compiles, 24
// warm cache hits, 8 single-actor renames and 4 grid bursts of its default
// 6 entries. Warm hits become hitClass and renames renameClass. The 4 bursts
// become one 24-point sweep (gridClass), which keeps the grid points per
// request. sdfload's cold compiles run passes on content no earlier request
// produced; here that share is split evenly between the two classes that do
// so, optionClass and structuralClass. Requests are dealt from a seeded
// shuffle of the deck, so every 39 requests carry exactly this mix and one
// seed's luck with the slow classes (grids above all) does not move
// throughput.
var editWeights = [numEditClasses]int{24, 8, 2, 2, 1}

const (
	editBases     = 24  // base graphs; many, so one seed's topologies move the figures little
	editBaseSize  = 150 // actors per base graph
	editConns     = 2   // client connections, one closed loop each
	editHistory   = 64  // hits repeat one of the last editHistory requests...
	editHitMinAge = 4   // ...that is at least this many requests old, so it has finished
	editCheckRuns = 120 // requests in each determinism replay
)

// optionSets are the non-default option changes: looping or allocators.
var optionSets = []service.CompileOptions{
	{Looping: "dppo"},
	{Looping: "chain"},
	{Looping: "flat"},
	{Allocators: []string{"ffdur"}},
	{Allocators: []string{"ffstart"}},
	{Allocators: []string{"bfdur"}},
	{Allocators: []string{"ffdur", "bfdur"}},
	{Looping: "dppo", Allocators: []string{"bfdur"}},
}

// gridEntries is the 24-point sweep: 2 orders x 4 loopings x 3 allocator
// sets.
func gridEntries() []service.CompileOptions {
	var out []service.CompileOptions
	for _, s := range []string{"rpmc", "apgan"} {
		for _, l := range []string{"sdppo", "dppo", "chain", "flat"} {
			for _, a := range [][]string{nil, {"bfdur"}, {"ffdur"}} {
				out = append(out, service.CompileOptions{Strategy: s, Looping: l, Allocators: a})
			}
		}
	}
	return out
}

// edgeEdit is a structural edit of one base graph; the zero value is none.
type edgeEdit struct {
	set     bool
	edge    int
	rateMul int64 // >1 scales the edge's production and consumption rates
	delay   int64 // >0 replaces the edge's delay
}

// editReq is one generated request: a compile (grid nil) or a grid sweep.
type editReq struct {
	idx   int64
	class editClass
	graph string
	opts  service.CompileOptions
	grid  []service.CompileOptions
}

// editGen produces the seeded request sequence. It is sequential: request i
// depends on the structural edits and the history before it, so callers
// take requests in order under the generator's lock.
type editGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	bases   []*sdf.Graph
	current []edgeEdit
	history []editReq
	deck    []editClass
	n       int64
}

func newEditGen(seed int64, bases []*sdf.Graph) *editGen {
	return &editGen{rng: rand.New(rand.NewSource(seed ^ 0xed17)), bases: bases, current: make([]edgeEdit, len(bases))}
}

// editBaseGraphs draws the seeded base graphs and parses them back from
// text, as the benchmark hands only text to the service.
func editBaseGraphs(seed int64) ([]*sdf.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []*sdf.Graph
	for b := 0; b < editBases; b++ {
		g := randsdf.Graph(rng, randsdf.Config{Actors: editBaseSize})
		g.Name = fmt.Sprintf("base%d", b)
		pg, err := parseText(g)
		if err != nil {
			return nil, err
		}
		out = append(out, pg)
	}
	return out, nil
}

// render writes base with edit ed applied and, when rename >= 0, actor
// rename given the suffix tag.
func render(base *sdf.Graph, ed edgeEdit, rename int, tag string) (string, error) {
	g := sdf.New(base.Name)
	for _, a := range base.Actors() {
		name := a.Name
		if int(a.ID) == rename {
			name += "_" + tag
		}
		g.AddActor(name)
	}
	for _, e := range base.Edges() {
		prod, cons, delay := e.Prod, e.Cons, e.Delay
		if ed.set && int(e.ID) == ed.edge {
			if ed.rateMul > 1 {
				prod, cons = prod*ed.rateMul, cons*ed.rateMul
			}
			if ed.delay > 0 {
				delay = ed.delay
			}
		}
		id := g.AddEdge(e.Src, e.Dst, prod, cons, delay)
		if e.Words > 1 {
			g.SetWords(id, e.Words)
		}
	}
	return sdfio.CanonicalString(g)
}

func (gen *editGen) next() (editReq, error) {
	gen.mu.Lock()
	defer gen.mu.Unlock()
	gen.n++
	if len(gen.deck) == 0 {
		for c := editClass(0); c < numEditClasses; c++ {
			for i := 0; i < editWeights[c]; i++ {
				gen.deck = append(gen.deck, c)
			}
		}
		gen.rng.Shuffle(len(gen.deck), func(i, j int) { gen.deck[i], gen.deck[j] = gen.deck[j], gen.deck[i] })
	}
	r := editReq{idx: gen.n, class: gen.deck[0]}
	gen.deck = gen.deck[1:]
	if r.class == hitClass {
		if len(gen.history) > editHitMinAge {
			lo := max(0, len(gen.history)-editHistory)
			j := lo + gen.rng.Intn(len(gen.history)-editHitMinAge-lo)
			old := gen.history[j]
			old.idx, old.class = r.idx, hitClass
			return old, nil
		}
		r.class = renameClass
	}
	b := gen.rng.Intn(len(gen.bases))
	base := gen.bases[b]
	if r.class == structuralClass {
		ed := edgeEdit{set: true, edge: gen.rng.Intn(base.NumEdges())}
		if gen.rng.Intn(2) == 0 {
			ed.rateMul = int64(2 + gen.rng.Intn(2))
		} else {
			ed.delay = base.Edge(sdf.EdgeID(ed.edge)).Prod * int64(1+gen.rng.Intn(8))
		}
		gen.current[b] = ed
	}
	// Every request renames one actor to a fresh name, so no compile or
	// grid request is an artifact-cache hit unless it repeats one verbatim.
	text, err := render(base, gen.current[b], gen.rng.Intn(base.NumActors()), "r"+strconv.FormatInt(r.idx, 10))
	if err != nil {
		return r, err
	}
	r.graph = text
	switch r.class {
	case optionClass:
		r.opts = optionSets[gen.rng.Intn(len(optionSets))]
	case gridClass:
		r.grid = gridEntries()
	case renameClass, structuralClass:
		// default options
	default:
		panic(fmt.Sprintf("perfbench: edit class %d reached the request builder", r.class))
	}
	gen.history = append(gen.history, r)
	if len(gen.history) > 2*editHistory {
		gen.history = append([]editReq(nil), gen.history[len(gen.history)-editHistory:]...)
	}
	return r, nil
}

// editRec is one completed request.
type editRec struct {
	req     editReq
	lat     time.Duration
	cached  bool
	digests []string
	sums    [][32]byte
}

// editServer is an in-process sdfd on loopback with a fresh pass-node store.
type editServer struct {
	svc   *service.Server
	store *nodestore.Store
	http  *http.Server
	addr  string
	done  chan error
}

func startEditServer(dir string) (*editServer, error) {
	store, err := nodestore.Open(dir, 1<<30)
	if err != nil {
		return nil, err
	}
	svc := service.New(service.Config{Workers: editConns, NodeStore: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &editServer{svc: svc, store: store, http: &http.Server{Handler: svc.Handler()}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

func (s *editServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	s.svc.Close()
	return err
}

func newEditClient(addr string) *service.Client {
	return &service.Client{BaseURL: "http://" + addr, HTTPClient: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

// send issues one request and records its artifacts' digests and hashes.
func send(c *service.Client, r editReq) (editRec, error) {
	rec := editRec{req: r}
	t0 := time.Now()
	if r.grid != nil {
		resp, err := c.Grid(service.GridRequest{Graph: r.graph, Entries: r.grid})
		rec.lat = time.Since(t0)
		if err != nil {
			return rec, err
		}
		if len(resp.Results) != len(r.grid) {
			return rec, fmt.Errorf("grid returned %d results for %d entries", len(resp.Results), len(r.grid))
		}
		rec.cached = true
		for i, er := range resp.Results {
			if er.Error != nil {
				return rec, fmt.Errorf("grid entry %d: %v", i, er.Error)
			}
			rec.cached = rec.cached && er.Cached
			rec.digests = append(rec.digests, er.Digest)
			rec.sums = append(rec.sums, sha256.Sum256(er.Artifact))
		}
		return rec, nil
	}
	resp, err := c.Compile(service.CompileRequest{Graph: r.graph, Options: r.opts}, false)
	rec.lat = time.Since(t0)
	if err != nil {
		return rec, err
	}
	rec.cached = resp.Cached
	rec.digests = []string{resp.Digest}
	rec.sums = [][32]byte{sha256.Sum256(resp.Artifact)}
	return rec, nil
}

// scrape reads the counters of the service's /metrics page.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// editSetup is the state the timed loop starts from: the base graphs and a
// running service whose store and cache hold the default compile of each
// base graph and of each fixed system. A design session opens on the
// library systems; the memory of their artifacts, served through the
// service's store-assisted plan path, is the workload's cells_per_bmlb,
// which is the same for every seed.
type editSetup struct {
	bases []*sdf.Graph
	srv   *editServer
	cells float64
}

func editWorkload(e *env) (*outcome, error) {
	var prev *editServer
	st, setupS, problems, err := setupTimes(3, func(rep int) (*editSetup, string, error) {
		if prev != nil {
			if err := prev.stop(); err != nil {
				return nil, "", err
			}
		}
		bases, err := editBaseGraphs(e.seed)
		if err != nil {
			return nil, "", err
		}
		fixed, err := fixedSystems()
		if err != nil {
			return nil, "", err
		}
		srv, err := startEditServer(filepath.Join(e.work, fmt.Sprintf("store%d", rep)))
		if err != nil {
			return nil, "", err
		}
		prev = srv
		c := newEditClient(srv.addr)
		defer c.HTTPClient.CloseIdleConnections()
		var shared, bmlb int64
		var fp strings.Builder
		for i, g := range append(fixed, bases...) {
			text, err := sdfio.CanonicalString(g)
			if err != nil {
				return nil, "", err
			}
			resp, err := c.Compile(service.CompileRequest{Graph: text}, false)
			if err != nil {
				return nil, "", fmt.Errorf("warm compile of %s: %w", g.Name, err)
			}
			var art service.Artifact
			if err := json.Unmarshal(resp.Artifact, &art); err != nil {
				return nil, "", err
			}
			if i < len(fixed) {
				shared += art.Metrics.SharedTotal
				bmlb += art.Metrics.BMLB
			}
			fmt.Fprintf(&fp, "%s:%d ", resp.Digest[:12], art.Metrics.SharedTotal)
		}
		return &editSetup{bases: bases, srv: srv, cells: float64(shared) / float64(max(bmlb, 1))}, fp.String(), nil
	})
	if err != nil {
		if prev != nil {
			_ = prev.stop()
		}
		return nil, err
	}
	out := &outcome{}
	for _, p := range problems {
		out.mismatch("determinism: %s", p)
	}
	lr, loopErr := editLoop(e, st)
	if err := st.srv.stop(); err != nil && loopErr == nil {
		loopErr = err
	}
	if loopErr != nil {
		return nil, loopErr
	}
	recs := lr.recs

	byClass := make([][]float64, numEditClasses) // ms
	var all []float64                            // ms, compile requests
	var served int                               // requests answered, grids included
	for _, r := range recs {
		out.attempted++
		if r.digests == nil {
			out.failed++
			continue
		}
		served++
		byClass[r.req.class] = append(byClass[r.req.class], ms(r.lat))
		if r.req.grid == nil {
			all = append(all, ms(r.lat))
		}
	}
	verifyArtifacts(recs, out)

	// Determinism: the same seeded sequence replayed twice against fresh
	// stores must execute and load exactly the same pass nodes. The replays
	// run on one processor: a grid plan can hold two nodes of one level with
	// the same store key (a chain-DP schedule that falls back to SDPPO
	// equals the SDPPO one), and with parallel levels whether the second
	// loads what the first stored depends on timing, which moves single
	// nodes between executed and loaded. One processor runs each level in
	// index order.
	var fps [2]string
	procs := runtime.GOMAXPROCS(1)
	for i := range fps {
		fp, _, err := replay(e, st.bases, editCheckRuns, nil, nil, fmt.Sprintf("check%d", i))
		if err != nil {
			runtime.GOMAXPROCS(procs)
			return nil, err
		}
		fps[i] = fp
	}
	runtime.GOMAXPROCS(procs)
	if fps[0] != fps[1] {
		out.mismatch("determinism: replay counts differ: %s vs %s", fps[0], fps[1])
	}
	out.rows = append(out.rows, rowf("replay counts (first %d requests): %s", editCheckRuns, fps[0]))
	// One more replay runs with parallel plan levels, as the service does.
	// Its counts are not a gate: they show, on every run, how far the known
	// timing dependence moves nodes between executed and loaded.
	parFp, _, err := replay(e, st.bases, editCheckRuns, nil, nil, "check-parallel")
	if err != nil {
		return nil, err
	}
	out.rows = append(out.rows, rowf("replay counts at GOMAXPROCS=%d (not a gate): %s", procs, parFp))
	out.rows = append(out.rows, rowf("replay count differences at GOMAXPROCS=%d against one processor: %s", procs, countDiff(fps[0], parFp)))

	var medians []float64
	for c := editClass(0); c < numEditClasses; c++ {
		med := quantile(byClass[c], 0.5)
		if len(byClass[c]) > 0 {
			medians = append(medians, med)
		}
		out.rows = append(out.rows, rowf("class %-10s n %5d  p50 %8.3f ms  p99 %8.3f ms", editClassNames[c], len(byClass[c]), med, quantile(byClass[c], 0.99)))
	}
	n := float64(served)
	out.rows = append(out.rows, rowf("requests %.0f in %.2fs over %d connections; the compile-request p99 rests on %d samples above it", n, lr.elapsed.Seconds(), editConns, len(all)/100))
	out.e2e = map[string]metric{
		"setup_s":         {setupS, "s"},
		"p50_ms":          {geomean(medians), "ms"},
		"p99_ms":          {quantile(all, 0.99), "ms"},
		"ops_per_s":       {n / lr.elapsed.Seconds(), "1/s"},
		"alloc_kb_per_op": {float64(lr.allocBytes) / 1024 / max(n, 1), "KB"},
		"cells_per_bmlb":  {st.cells, "ratio"},
	}

	out.layers = newLayers()
	if e.tr != nil {
		_, rs, err := replay(e, st.bases, int64(len(recs)), e.tr, recs, "traced")
		if err != nil {
			return nil, err
		}
		fillPassLayers(out.layers, e.tr, rs.plans)
		var latSum time.Duration
		for _, r := range recs {
			latSum += r.lat
		}
		hits := lr.after["sdfd_cache_hits_total"] - lr.before["sdfd_cache_hits_total"]
		misses := lr.after["sdfd_cache_misses_total"] - lr.before["sdfd_cache_misses_total"]
		setLayer(out.layers, "service.cache_hit_ratio", hits/max(hits+misses, 1))
		setLayer(out.layers, "service.overhead_ms", ms(latSum-rs.planTime-rs.artifactTime)/max(n, 1))
		setLayer(out.layers, "service.artifact_ms", ms(rs.artifactTime)/float64(max(rs.artifacts, 1)))
		sh := lr.sa.Hits - lr.sb.Hits
		sm := lr.sa.Misses - lr.sb.Misses
		setLayer(out.layers, "nodestore.hit_ratio", float64(sh)/float64(max(sh+sm, 1)))
		setLayer(out.layers, "nodestore.get_us", float64(rs.store.getNs.Load())/1e3/float64(max(rs.store.gets.Load(), 1)))
		setLayer(out.layers, "nodestore.put_us", float64(rs.store.putNs.Load())/1e3/float64(max(rs.store.puts.Load(), 1)))
		setLayer(out.layers, "nodestore.bytes_written", float64(lr.sa.Bytes-lr.sb.Bytes)/max(n, 1))
		setLayer(out.layers, "plan.executed_nodes", float64(rs.executed)/max(n, 1))
		setLayer(out.layers, "plan.loaded_nodes", float64(rs.loaded)/max(n, 1))
		for c := editClass(0); c < numEditClasses; c++ {
			setLayer(out.layers, "edit."+editClassNames[c]+"_ms", quantile(byClass[c], 0.5))
		}
	}
	return out, nil
}

// editLoopResult is what the timed loop measured: every request, the loop's
// length and Go heap allocation, and the service's counters before and
// after.
type editLoopResult struct {
	recs          []editRec
	elapsed       time.Duration
	allocBytes    uint64
	before, after map[string]float64
	sb, sa        nodestore.Stats
}

// editLoop runs the closed loops: editConns connections, each sending the
// next request of the shared sequence as soon as its previous one returns.
func editLoop(e *env, st *editSetup) (*editLoopResult, error) {
	gen := newEditGen(e.seed, st.bases)
	res := &editLoopResult{}
	var err error
	if res.before, err = scrape(st.srv.addr); err != nil {
		return nil, err
	}
	res.sb = st.srv.store.Stats()
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		ms0, ms1 runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(e.seconds)
	for conn := 0; conn < editConns; conn++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newEditClient(st.srv.addr)
			defer c.HTTPClient.CloseIdleConnections()
			for time.Now().Before(deadline) {
				r, gerr := gen.next()
				if gerr != nil {
					mu.Lock()
					firstErr = gerr
					mu.Unlock()
					return
				}
				root := e.tr.begin("service."+editClassNames[r.class], 0, r.idx)
				rec, serr := send(c, r)
				e.tr.end(root)
				if serr != nil {
					fmt.Fprintf(os.Stderr, "perfbench: edit request %d (%s) failed: %v\n", r.idx, editClassNames[r.class], serr)
					rec.digests = nil
				}
				mu.Lock()
				res.recs = append(res.recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if firstErr != nil {
		return nil, firstErr
	}
	sort.Slice(res.recs, func(i, j int) bool { return res.recs[i].req.idx < res.recs[j].req.idx })
	if res.after, err = scrape(st.srv.addr); err != nil {
		return nil, err
	}
	res.sa = st.srv.store.Stats()
	return res, nil
}

// verifyArtifacts checks that every digest always came back with the same
// bytes and that those bytes equal an in-process service.CompileArtifact of
// the same request.
func verifyArtifacts(recs []editRec, out *outcome) {
	type ref struct {
		graph string
		opts  service.CompileOptions
		sum   [32]byte
	}
	refs := map[string]ref{}
	var order []string
	for _, r := range recs {
		for i, d := range r.digests {
			opts := r.req.opts
			if r.req.grid != nil {
				opts = r.req.grid[i]
			}
			if old, ok := refs[d]; ok {
				if old.sum != r.sums[i] {
					out.mismatch("digest %s served with two different artifacts", d)
				}
				continue
			}
			refs[d] = ref{graph: r.req.graph, opts: opts, sum: r.sums[i]}
			order = append(order, d)
		}
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next int
	)
	for w := 0; w < editConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(order) {
					mu.Unlock()
					return
				}
				d := order[next]
				next++
				rf := refs[d]
				mu.Unlock()
				msg := ""
				g, err := sdfio.Parse(strings.NewReader(rf.graph))
				if err == nil {
					var data []byte
					data, _, err = service.CompileArtifact(g, rf.opts)
					if err == nil && sha256.Sum256(data) != rf.sum {
						msg = fmt.Sprintf("digest %s: artifact differs from in-process CompileArtifact", d)
					}
				}
				if err != nil {
					msg = fmt.Sprintf("digest %s: reference compile failed: %v", d, err)
				}
				if msg != "" {
					mu.Lock()
					out.mismatch("%s", msg)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// replayStats is what a replay through pass.Plan measured.
type replayStats struct {
	plans                  int
	executed, loaded       int
	planTime, artifactTime time.Duration
	artifacts              int
	store                  *timedStore
}

// replay runs the first n requests of the seeded sequence, one at a time,
// through pass.NewPlan/Run over a timed wrapper of a fresh nodestore that is
// first warmed like the service's. Requests the service answered from its
// artifact cache (per recs, or every hit-class request without recs) run
// no plan, as in the service. It returns a fingerprint of the executed and
// loaded node counts per pass kind and of the store's hits and misses.
func replay(e *env, bases []*sdf.Graph, n int64, tr *tracer, recs []editRec, name string) (string, replayStats, error) {
	dir := filepath.Join(e.work, "replay-"+name)
	store, err := nodestore.Open(dir, 1<<30)
	if err != nil {
		return "", replayStats{}, err
	}
	defer os.RemoveAll(dir)
	rs := replayStats{store: &timedStore{inner: store}}
	ctx := context.Background()
	for _, g := range bases {
		if _, _, err := runPlan(ctx, nil, 0, 0, g, []pass.Options{{}}, store); err != nil {
			return "", rs, err
		}
	}
	executed := map[pass.Kind]int{}
	loaded := map[pass.Kind]int{}
	cached := map[int64]bool{}
	for _, r := range recs {
		cached[r.req.idx] = r.cached
	}
	gen := newEditGen(e.seed, bases)
	for i := int64(1); i <= n; i++ {
		r, err := gen.next()
		if err != nil {
			return "", rs, err
		}
		if c, ok := cached[r.idx]; (ok && c) || (!ok && r.class == hitClass) {
			continue
		}
		g, err := sdfio.Parse(strings.NewReader(r.graph))
		if err != nil {
			return "", rs, err
		}
		wire := []service.CompileOptions{r.opts}
		if r.grid != nil {
			wire = r.grid
		}
		points := make([]pass.Options, len(wire))
		for j, o := range wire {
			points[j] = passOptions(o)
		}
		t0 := time.Now()
		p, outs, err := runPlan(ctx, tr, 0, r.idx, g, points, rs.store)
		rs.planTime += time.Since(t0)
		if err != nil {
			return "", rs, err
		}
		rs.plans++
		for _, kc := range p.Stats() {
			executed[kc.Kind] += kc.Executed
			loaded[kc.Kind] += kc.Loaded
			rs.executed += kc.Executed
			rs.loaded += kc.Loaded
		}
		for j, o := range outs {
			if o.Err != nil {
				return "", rs, fmt.Errorf("replay of request %d entry %d: %w", r.idx, j, o.Err)
			}
			t1 := time.Now()
			id := tr.begin("service.artifact", 0, r.idx)
			_, err := service.ArtifactBytes(o.Result, wire[j])
			tr.end(id)
			rs.artifactTime += time.Since(t1)
			rs.artifacts++
			if err != nil {
				return "", rs, err
			}
		}
	}
	var fp strings.Builder
	for _, k := range pass.Kinds() {
		fmt.Fprintf(&fp, "%s=%d/%d ", k, executed[k], loaded[k])
	}
	fmt.Fprintf(&fp, "store hits=%d misses=%d", rs.store.hits.Load(), rs.store.misses.Load())
	return fp.String(), rs, nil
}

// countDiff compares two replay fingerprints field by field and lists the
// fields that differ as name=one-processor->parallel; "none" if none do.
func countDiff(seq, par string) string {
	a, b := strings.Fields(seq), strings.Fields(par)
	if len(a) != len(b) {
		return fmt.Sprintf("fingerprints of different shape: %q vs %q", seq, par)
	}
	var diffs []string
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		name, va, _ := strings.Cut(a[i], "=")
		_, vb, _ := strings.Cut(b[i], "=")
		diffs = append(diffs, name+"="+va+"->"+vb)
	}
	if len(diffs) == 0 {
		return "none"
	}
	return strings.Join(diffs, " ")
}

// passOptions maps wire options onto the library configuration the service
// would build for them.
func passOptions(o service.CompileOptions) pass.Options {
	var p pass.Options
	if o.Strategy == "apgan" {
		p.Strategy = pass.APGAN
	} else {
		p.Strategy = pass.RPMC
	}
	switch o.Looping {
	case "dppo":
		p.Looping = pass.DPPOLoops
	case "chain":
		p.Looping = pass.ChainPreciseLoops
	case "flat":
		p.Looping = pass.FlatLoops
	default:
		p.Looping = pass.SDPPOLoops
	}
	for _, a := range o.Allocators {
		switch a {
		case "ffdur":
			p.Allocators = append(p.Allocators, alloc.FirstFitDuration)
		case "ffstart":
			p.Allocators = append(p.Allocators, alloc.FirstFitStart)
		case "bfdur":
			p.Allocators = append(p.Allocators, alloc.BestFitDuration)
		}
	}
	return p
}
