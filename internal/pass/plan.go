package pass

import (
	"context"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/par"
	"repro/internal/sdf"
)

// PlanConfig parameterizes plan construction and observation.
type PlanConfig struct {
	// GraphKey is the content identity of the graph embedded in node keys
	// (the service passes its canonical digest). It is observability only —
	// deduplication happens within one plan over one graph, so any stable
	// string works; empty defaults to the graph name.
	GraphKey string
	// OnEvent, when non-nil, receives an Enter and a Leave event for every
	// pass node the executor actually runs. Nodes at one level run in
	// parallel, so the handler must be safe for concurrent use. Nodes whose
	// artifact is loaded from Store are not run and emit no events; Stats
	// reports them as Loaded.
	OnEvent func(Event)
	// OnOutcome, when non-nil, is called exactly once per grid point as that
	// point reaches its terminal state — its assembly finishes or an upstream
	// failure propagates to it — with the point's input index and the same
	// Outcome Run will return for it. Points at one level finish in parallel,
	// so the handler must be safe for concurrent use. The service's async job
	// runner uses this to stream per-entry results while the grid is still
	// executing.
	OnOutcome func(point int, o Outcome)
	// Store, when non-nil, is the persistent pass-node store: before
	// executing a node the executor probes it under the node's projected
	// content key (store.go) and decodes the artifact on a hit; after a
	// successful execution it publishes the encoded artifact. Keys cover
	// exactly the graph fields each pass reads, chained through upstream
	// artifact hashes, so an edit invalidates only the DAG suffix that can
	// observe it. Assemble nodes and the cyclic fallback never touch the
	// store. The store must be safe for concurrent use.
	Store Store
}

// Outcome is one grid point's terminal state: exactly one of Result and Err
// is non-nil. Err for a point is the error CompileContext returns for that
// point alone (shared prefix nodes propagate their failure to every point
// that depends on them).
type Outcome struct {
	Result *Result
	Err    error
}

// KindCount reports the deduplication achieved for one pass kind: Nodes is
// how many nodes of that kind the plan holds, Naive is how many executions
// the point-at-a-time pipeline would have performed for the same grid.
// After Run, Executed counts the nodes whose pass actually ran and Loaded
// the nodes satisfied from the persistent store instead (nodes that only
// propagated an upstream failure count for neither).
type KindCount struct {
	Kind     Kind
	Nodes    int
	Naive    int
	Executed int
	Loaded   int
}

// Plan is a memoized pass graph over one SDF graph and a grid of option
// points. Construction dedups grid points into a prefix-sharing DAG — the
// repetitions vector once per graph, each lexical order once per strategy,
// each looped schedule once per (order, looping), lifetimes once per
// schedule, and each allocator leaf once per (lifetimes, strategy) — so a
// full strategy × looping × allocator sweep executes O(distinct nodes)
// passes instead of O(points × pipeline length). A Plan is single-use:
// build with NewPlan, execute with Run once. CompileContext is a one-point
// Plan.
//
// Graphs whose precedence relation is cyclic take a fallback: every point
// runs the SCC condensation path independently (it has no shareable prefix
// structure), still in parallel, with one Assemble node per point.
type Plan struct {
	g      *sdf.Graph
	q      sdf.Repetitions
	cfg    PlanConfig
	points []Options
	cyclic bool

	// levels holds the pass nodes by kind. Run resolves the levels in Kind
	// order; the nodes of one level are independent of each other.
	levels     [KindAssemble][]*node
	naive      [KindAssemble]int
	assemblies []*assembleNode
}

// nodeState tracks how one pass node was satisfied: ran is set around the
// actual pass execution, loaded when the artifact came from the persistent
// store. At most one of the two is set; neither on upstream failure.
type nodeState struct {
	ran    bool
	loaded bool
}

func (ns nodeState) counts() (executed, loaded int) {
	if ns.ran {
		return 1, 0
	}
	if ns.loaded {
		return 0, 1
	}
	return 0, 0
}

// node is one deduplicated pass node: its kind, its in-plan key, the node
// whose artifact its pass reads (nil for repetitions; every other pass also
// reads the repetitions vector, whose failure reaches it through the chain),
// and the option fields of its own kind. Run fills the artifact field of the
// node's kind, or err.
type node struct {
	kind   Kind
	key    Key
	parent *node

	strategy   OrderStrategy  // KindOrder
	custom     []sdf.ActorID  // KindOrder
	looping    LoopAlg        // KindSchedule
	strat      alloc.Strategy // KindAlloc
	partitions int            // KindPartition

	rep  Repetitions
	ord  Order
	ls   LoopedSchedule
	lf   Lifetimes
	al   Allocation
	part Partition
	seg  SegmentedAllocation
	err  error

	storeKey string // persistent key; empty without a store
	twin     *node  // earlier node of the same level under the same storeKey
	data     []byte // the encoded artifact, once loaded or published
	hash     []byte // payload hash chaining into the children's store keys
	nodeState
}

// assembleNode is one grid point's leaf: verify/merge/metrics assembly over
// the shared artifacts. Never shared — Verify, VerifyPeriods, Merging and
// MergePolicy are per-point.
type assembleNode struct {
	key    Key
	opts   Options
	life   *node // nil on the cyclic fallback
	allocs []*node
	seg    *node // nil unless the point requested Partitions >= 2
	out    *Result
	err    error
	nodeState
}

// NewPlan builds the deduplicated pass graph for compiling g at every point
// of the grid. Points may repeat (identical points share every node and
// yield independent identical outcomes).
func NewPlan(g *sdf.Graph, points []Options, cfg PlanConfig) (*Plan, error) {
	if g == nil {
		return nil, fmt.Errorf("pass: plan needs a graph")
	}
	if cfg.GraphKey == "" {
		cfg.GraphKey = g.Name
	}
	p := &Plan{g: g, cfg: cfg, points: make([]Options, len(points))}
	copy(p.points, points)

	q, err := g.Repetitions()
	if err != nil {
		// Inconsistency fails every point identically; surface it once at
		// plan time.
		return nil, err
	}
	p.q = q
	if !g.IsAcyclic(q) {
		p.cyclic = true
		for i, pt := range p.points {
			p.assemblies = append(p.assemblies, &assembleNode{
				key:  Key(fmt.Sprintf("assemble|g:%s|cyclic|pt:%d", cfg.GraphKey, i)),
				opts: pt,
			})
		}
		return p, nil
	}

	idx := map[Key]*node{}
	for i, pt := range p.points {
		rn := p.add(idx, node{kind: KindRepetitions, key: repetitionsKey(cfg.GraphKey)})
		ok := orderKey(cfg.GraphKey, pt.Strategy, pt.Order)
		on := p.add(idx, node{kind: KindOrder, key: ok, parent: rn, strategy: pt.Strategy, custom: pt.Order})
		sk := scheduleKey(ok, pt.Looping)
		sn := p.add(idx, node{kind: KindSchedule, key: sk, parent: on, looping: pt.Looping})
		ln := p.add(idx, node{kind: KindLifetimes, key: lifetimesKey(sk), parent: sn})
		as := &assembleNode{
			key:  Key(fmt.Sprintf("assemble|%s|pt:%d", ln.key, i)),
			opts: pt,
			life: ln,
		}
		for _, strat := range defaultAllocators(pt.Allocators) {
			as.allocs = append(as.allocs, p.add(idx, node{kind: KindAlloc, key: allocKey(ln.key, strat), parent: ln, strat: strat}))
		}
		if pt.Partitions >= 2 {
			pk := partitionKey(ok, pt.Partitions)
			pn := p.add(idx, node{kind: KindPartition, key: pk, parent: on, partitions: pt.Partitions})
			as.seg = p.add(idx, node{kind: KindSegalloc, key: segallocKey(pk), parent: pn})
		}
		p.assemblies = append(p.assemblies, as)
	}
	return p, nil
}

// add returns the plan's node under n.key, creating it from n on first use,
// and counts one naive execution of n's kind.
func (p *Plan) add(idx map[Key]*node, n node) *node {
	p.naive[n.kind]++
	if old := idx[n.key]; old != nil {
		return old
	}
	nn := &n
	idx[n.key] = nn
	p.levels[n.kind] = append(p.levels[n.kind], nn)
	return nn
}

// Stats reports, per pass kind, how many nodes the plan executes versus how
// many the naive point-at-a-time pipeline would have, plus — once Run has
// happened — how many nodes actually ran (Executed) versus were satisfied
// from the persistent store (Loaded). On the cyclic fallback there is no
// sharing: only Assemble nodes exist and Nodes == Naive.
func (p *Plan) Stats() []KindCount {
	var out []KindCount
	if !p.cyclic {
		for k, level := range p.levels {
			kc := KindCount{Kind: Kind(k), Nodes: len(level), Naive: p.naive[k]}
			for _, n := range level {
				e, l := n.counts()
				kc.Executed, kc.Loaded = kc.Executed+e, kc.Loaded+l
			}
			out = append(out, kc)
		}
	}
	asm := KindCount{Kind: KindAssemble, Nodes: len(p.points), Naive: len(p.points)}
	for _, as := range p.assemblies {
		e, l := as.counts()
		asm.Executed, asm.Loaded = asm.Executed+e, asm.Loaded+l
	}
	return append(out, asm)
}

// NodeCount returns total executed nodes and the naive execution count,
// summed over kinds.
func (p *Plan) NodeCount() (nodes, naive int) {
	for _, kc := range p.Stats() {
		nodes += kc.Nodes
		naive += kc.Naive
	}
	return nodes, naive
}

func (p *Plan) emit(k Kind, key Key, enter bool) {
	if p.cfg.OnEvent != nil {
		p.cfg.OnEvent(Event{Kind: k, Key: key, Enter: enter})
	}
}

// abortErr is the stage-boundary cancellation error for a node of kind k.
func abortErr(ctx context.Context, k Kind) error {
	stage := ""
	switch k {
	case KindRepetitions, KindOrder:
		stage = StageSchedule
	case KindSchedule:
		stage = StageLoopDP
	case KindLifetimes:
		stage = StageLifetime
	case KindAlloc, KindAssemble:
		stage = StageAlloc
	case KindPartition:
		stage = StagePartition
	case KindSegalloc:
		stage = StageSegments
	default:
		panic(fmt.Sprintf("pass: abortErr: unknown kind %d", int(k)))
	}
	return checkpoint(ctx, stage)
}

// Run executes the plan: level by level down the DAG, independent nodes of a
// level in parallel on the deterministic par pool, each node exactly once.
// The returned slice has one Outcome per input point, in input order. A
// failing shared node fails every dependent point with the same error; the
// remaining branches still execute. Run never returns an overall error —
// cancellation of ctx surfaces as per-point abort errors.
func (p *Plan) Run(ctx context.Context) []Outcome {
	// The store keys project exactly the graph fields each pass reads
	// (store.go); the projections are computed once per run.
	var sk *storeKeys
	if p.cfg.Store != nil && !p.cyclic {
		sk = newStoreKeys(p.g)
	}
	// Partitions run after the allocator leaves (Kind order) to keep the
	// first-error order of one point: alloc failures win.
	for _, level := range p.levels {
		p.runLevel(ctx, sk, level)
	}

	// Per-point assembly (verify, merge, metrics). Assembly is never stored:
	// its inputs include per-point options (verify, merging) and its output
	// includes the graph pointer itself.
	_ = par.ForEach(len(p.assemblies), func(i int) error {
		as := p.assemblies[i]
		// Every point reaches this body — upstream failures propagate into
		// as.err here — so the deferred hook fires exactly once per point.
		defer p.emitOutcome(i, as)
		if as.err = as.upstreamErr(); as.err != nil {
			return nil
		}
		p.emit(KindAssemble, as.key, true)
		as.ran = true
		as.out, as.err = p.assemble(ctx, as)
		p.emit(KindAssemble, as.key, false)
		return nil
	})
	return p.outcomes()
}

// runLevel resolves the nodes of one level in parallel. Nodes sharing a
// store key (two strategies emitting the same order, two loopings the same
// schedule) resolve in plan order: the first runs, the later ones load the
// bytes it published, so Stats never depends on goroutine interleaving.
func (p *Plan) runLevel(ctx context.Context, sk *storeKeys, level []*node) {
	leaders, followers := level, []*node(nil)
	if sk != nil {
		leaders = nil
		first := map[string]*node{}
		for _, n := range level {
			if n.parent == nil || n.parent.err == nil {
				n.storeKey = n.storeKeyOf(sk)
				if lead := first[n.storeKey]; lead != nil {
					n.twin = lead
					followers = append(followers, n)
					continue
				}
				first[n.storeKey] = n
			}
			leaders = append(leaders, n)
		}
	}
	run := func(group []*node) {
		_ = par.ForEach(len(group), func(i int) error {
			p.runNode(ctx, group[i])
			return nil
		})
	}
	run(leaders)
	run(followers)
}

// runNode is the one node runner: propagate the parent's failure, honour
// cancellation, load the artifact (from the twin's bytes or the store), or
// run the pass and publish its encoding.
func (p *Plan) runNode(ctx context.Context, n *node) {
	if n.parent != nil && n.parent.err != nil {
		n.err = n.parent.err
		return
	}
	if ctx.Err() != nil {
		n.err = abortErr(ctx, n.kind)
		return
	}
	if n.storeKey != "" {
		data, ok := []byte(nil), false
		if n.twin != nil {
			data, ok = n.twin.data, n.twin.data != nil
		} else {
			data, ok = p.cfg.Store.Get(n.storeKey)
		}
		if ok && p.decode(n, data) == nil {
			n.loaded, n.data, n.hash = true, data, payloadHash(data)
			return
		}
	}
	p.emit(n.kind, n.key, true)
	n.ran = true
	n.err = p.exec(n)
	p.emit(n.kind, n.key, false)
	if n.storeKey != "" && n.err == nil {
		if data, err := n.encode(); err == nil {
			n.data, n.hash = data, payloadHash(data)
			p.cfg.Store.Put(n.storeKey, data)
		}
	}
}

// repetitions is the artifact of the plan's single repetitions node.
func (p *Plan) repetitions() Repetitions {
	return p.levels[KindRepetitions][0].rep
}

// exec runs n's pass over its parent's artifact.
func (p *Plan) exec(n *node) error {
	var err error
	switch n.kind {
	case KindRepetitions:
		// NewPlan already solved the balance equations (RunRepetitions) to
		// tell acyclic from cyclic graphs.
		n.rep = Repetitions{Q: p.q}
	case KindOrder:
		n.ord, err = RunOrder(p.g, p.repetitions(), n.strategy, n.custom)
	case KindSchedule:
		n.ls, err = RunSchedule(p.g, p.repetitions(), n.parent.ord, n.looping)
	case KindLifetimes:
		n.lf, err = RunLifetimes(p.repetitions(), n.parent.ls)
	case KindAlloc:
		// Many leaves read one Lifetimes artifact concurrently; RunAlloc
		// never writes it.
		n.al, err = RunAlloc(n.parent.lf, n.strat)
	case KindPartition:
		n.part, err = RunPartition(p.g, p.repetitions(), n.parent.ord, n.partitions)
	case KindSegalloc:
		n.seg, err = RunSegAlloc(p.g, p.repetitions(), n.parent.part)
	default:
		panic(fmt.Sprintf("pass: no pass node of kind %v", n.kind))
	}
	return err
}

// storeKeyOf is n's persistent key: its kind's projection, chained through
// the parent's payload hash.
func (n *node) storeKeyOf(sk *storeKeys) string {
	switch n.kind {
	case KindRepetitions:
		return sk.repKey()
	case KindOrder:
		return sk.orderKey(n.strategy, n.custom)
	case KindSchedule:
		return sk.schedKey(n.parent.hash, n.looping)
	case KindLifetimes:
		return sk.lifeKey(n.parent.hash)
	case KindAlloc:
		return allocStoreKey(n.parent.hash, n.strat)
	case KindPartition:
		return partitionStoreKey(sk, n.parent.hash, n.partitions)
	case KindSegalloc:
		return segallocStoreKey(sk, n.parent.hash)
	default:
		panic(fmt.Sprintf("pass: no pass node of kind %v", n.kind))
	}
}

// encode is the store payload of n's artifact.
func (n *node) encode() ([]byte, error) {
	switch n.kind {
	case KindRepetitions:
		return encodeRep(n.rep), nil
	case KindOrder:
		return encodeOrder(n.ord), nil
	case KindSchedule:
		return encodeSched(n.ls), nil
	case KindLifetimes:
		return encodeLife(n.lf), nil
	case KindAlloc:
		return encodeAlloc(n.parent.lf, n.al)
	case KindPartition:
		return encodePartition(n.part), nil
	case KindSegalloc:
		return encodeSegalloc(n.seg), nil
	default:
		panic(fmt.Sprintf("pass: no pass node of kind %v", n.kind))
	}
}

// decode fills n's artifact from a store payload, validated against the
// live graph and n's own upstream artifacts.
func (p *Plan) decode(n *node, data []byte) error {
	var err error
	switch n.kind {
	case KindRepetitions:
		n.rep, err = decodeRep(p.g, data)
	case KindOrder:
		n.ord, err = decodeOrder(p.g, data)
	case KindSchedule:
		n.ls, err = decodeSched(p.g, data)
	case KindLifetimes:
		n.lf, err = decodeLife(p.g, n.parent.ls, data)
	case KindAlloc:
		n.al, err = decodeAlloc(n.parent.lf, n.strat, data)
	case KindPartition:
		n.part, err = decodePartition(p.g, p.repetitions(), n.parent.ord, data)
	case KindSegalloc:
		n.seg, err = decodeSegalloc(p.g, p.repetitions(), n.parent.part, data)
	default:
		panic(fmt.Sprintf("pass: no pass node of kind %v", n.kind))
	}
	return err
}

// upstreamErr is the first failure among the point's inputs, in the order a
// point-at-a-time pipeline meets them: lifetimes, then each allocator in the
// point's order, then the partition (which its segmented allocation
// inherits).
func (as *assembleNode) upstreamErr() error {
	if as.life == nil {
		return nil
	}
	if as.life.err != nil {
		return as.life.err
	}
	for _, an := range as.allocs {
		if an.err != nil {
			return an.err
		}
	}
	if as.seg != nil {
		return as.seg.err
	}
	return nil
}

// assemble builds one point's Result from the shared artifacts, or runs the
// SCC condensation path on the cyclic fallback.
func (p *Plan) assemble(ctx context.Context, as *assembleNode) (*Result, error) {
	if p.cyclic {
		return compileCyclic(ctx, p.g, p.q, as.opts)
	}
	allocs := make([]Allocation, len(as.allocs))
	for i, an := range as.allocs {
		allocs[i] = an.al
	}
	var part Partition
	var seg SegmentedAllocation
	if as.seg != nil {
		part, seg = as.seg.parent.part, as.seg.seg
	}
	sched := as.life.parent
	return finishResult(ctx, p.g, as.opts, p.repetitions(),
		sched.parent.ord.Actors, sched.ls, as.life.lf, allocs, part, seg)
}

func (p *Plan) emitOutcome(i int, as *assembleNode) {
	if p.cfg.OnOutcome != nil {
		p.cfg.OnOutcome(i, Outcome{Result: as.out, Err: as.err})
	}
}

func (p *Plan) outcomes() []Outcome {
	out := make([]Outcome, len(p.assemblies))
	for i, as := range p.assemblies {
		out[i] = Outcome{Result: as.out, Err: as.err}
	}
	return out
}

// RunGridOutcomes plans and executes g across the option grid, returning one
// Outcome per point in input order.
func RunGridOutcomes(ctx context.Context, g *sdf.Graph, points []Options, cfg PlanConfig) ([]Outcome, error) {
	p, err := NewPlan(g, points, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx), nil
}

// RunGrid is RunGridOutcomes with fail-fast semantics: the error of the
// lowest-indexed failing point (or the plan-time error) aborts the whole
// grid, mirroring a sequential loop of CompileContext calls.
func RunGrid(ctx context.Context, g *sdf.Graph, points []Options, cfg PlanConfig) ([]*Result, error) {
	outs, err := RunGridOutcomes(ctx, g, points, cfg)
	if err != nil {
		return nil, err
	}
	res := make([]*Result, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, o.Err
		}
		res[i] = o.Result
	}
	return res, nil
}
