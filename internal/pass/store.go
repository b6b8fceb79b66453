package pass

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/lifetime"
	"repro/internal/merge"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/schedtree"
	"repro/internal/sdf"
)

// Store is the persistent artifact store consulted by the Plan executor: a
// content-addressed byte store (internal/nodestore on disk, any map in
// tests). Get returns the payload published under key; Put publishes one.
// Both must be safe for concurrent use — plan levels run their nodes in
// parallel. Put may be dropped silently (the store is a cache); Get must
// never return bytes other than those Put under the same key.
type Store interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte)
}

// StoreVersion is the version preamble mixed into every store key. Bump it
// whenever an artifact encoding or a key projection changes incompatibly:
// old entries then live under unreachable keys and age out, instead of
// aliasing the new schema. The storeKeyMap mirror below ties this constant
// to the Options shape the keys cover.
const StoreVersion = "pass-node/v1"

// storeKeyMap is the completeness mirror for the persistent store keys, the
// cross-process sibling of optionsKeyMap (options.go): sdflint's keycomplete
// analyzer checks it mirrors Options field for field, and each field is
// annotated with the store key that carries it, or with the reason it needs
// none. Adding an Options knob therefore forces TWO decisions: which in-plan
// node key carries it (optionsKeyMap) and which persistent key carries it
// (here). Forgetting the latter would let two configurations silently alias
// one store entry across daemon restarts — much worse than an in-memory
// aliasing bug, which at least dies with the process. Changing how an
// existing field is keyed requires bumping StoreVersion.
//
//lint:keymap Options
type storeKeyMap struct {
	Strategy      OrderStrategy                  // orderStoreKey (and every chained downstream key)
	Order         []sdf.ActorID                  // orderStoreKey, custom strategies only
	Looping       LoopAlg                        // schedStoreKey; FlatLoops additionally pulls the words projection in (its DP cost reads Words)
	Allocators    []alloc.Strategy               // allocStoreKey, one key per allocator
	Verify        bool                           // assemble-only: assembled Results are never stored
	VerifyPeriods int                            // assemble-only: assembled Results are never stored
	Merging       bool                           // assemble-only: assembled Results are never stored
	MergePolicy   func(sdf.ActorID) merge.Policy // assemble-only: assembled Results are never stored
	Partitions    int                            // partitionStoreKey (segallocStoreKey inherits it through the chained partition hash)
}

// kindTag names each pass kind inside store keys. The switch deliberately
// has no default clause: sdflint's exhaustive analyzer then fails the build
// the moment a new Kind is declared without deciding its store treatment
// (either a tag here or an explicit "never stored" case).
func kindTag(k Kind) string {
	switch k {
	case KindRepetitions:
		return "rep"
	case KindOrder:
		return "order"
	case KindSchedule:
		return "sched"
	case KindLifetimes:
		return "life"
	case KindAlloc:
		return "alloc"
	case KindPartition:
		return "part"
	case KindSegalloc:
		return "seg"
	case KindAssemble:
		panic("pass: assemble artifacts are per-point (verify/merge options differ) and are never stored")
	}
	panic(fmt.Sprintf("pass: kind %d has no store tag", int(k)))
}

// Store key design — projection digests with hash chaining.
//
// The in-plan node keys (options.go) embed an opaque GraphKey, so ANY edit
// to the graph text changes EVERY key: sound, but useless for incremental
// recompilation. Store keys instead cover, per stage, exactly the graph
// fields that stage's pass reads:
//
//	repetitions  topology + rates                 (sdf.Repetitions: balance equations only)
//	order        topology + rates + delays        (RPMC cut costs read tnse + delay; APGAN clusters read rates)
//	schedule     order artifact + topology + rates + delays [+ words iff FlatLoops]
//	             (the loop DPs cost edges by tnse + delay; FlatLoops' cost is BufMem, which scales by Words)
//	lifetimes    schedule artifact + topology + rates + delays + words
//	alloc        lifetimes artifact + allocator   (packing reads nothing but the intervals)
//
// Two consequences. First, actor NAMES appear in no projection and no
// artifact encoding (interval names are reconstructed from the live graph at
// decode), so renaming an actor invalidates nothing below assemble — the
// whole pipeline is loaded and only the per-point assembly re-runs. Second,
// downstream keys chain through the upstream artifact's payload hash rather
// than its inputs: if a delay edit happens to produce the identical lexical
// order, every (schedule, lifetimes, allocation) computed under that order
// for OTHER delay values stays invalid (delay is in their projections), but
// the chain means an edit that does not change an upstream artifact's bytes
// cannot spuriously invalidate a downstream entry through key churn alone.
type storeKeys struct {
	rates  []byte // actor count + per-edge (src, dst, prod, cons)
	delays []byte // per-edge delay
	words  []byte // per-edge words
}

// newStoreKeys precomputes the graph projections once per plan run.
func newStoreKeys(g *sdf.Graph) *storeKeys {
	sk := &storeKeys{}
	sk.rates = binary.AppendVarint(sk.rates, int64(g.NumActors()))
	sk.rates = binary.AppendVarint(sk.rates, int64(g.NumEdges()))
	for _, e := range g.Edges() {
		sk.rates = binary.AppendVarint(sk.rates, int64(e.Src))
		sk.rates = binary.AppendVarint(sk.rates, int64(e.Dst))
		sk.rates = binary.AppendVarint(sk.rates, e.Prod)
		sk.rates = binary.AppendVarint(sk.rates, e.Cons)
		sk.delays = binary.AppendVarint(sk.delays, e.Delay)
		sk.words = binary.AppendVarint(sk.words, e.Words)
	}
	return sk
}

// storeDigest is the single key constructor: hex SHA-256 over the version
// preamble, the kind tag, and length-prefixed parts (length prefixes keep
// adjacent variable-length parts from aliasing).
func storeDigest(kind Kind, parts ...[]byte) string {
	h := sha256.New()
	h.Write([]byte(StoreVersion))
	h.Write([]byte{'\n'})
	h.Write([]byte(kindTag(kind)))
	var lenbuf [binary.MaxVarintLen64]byte
	for _, p := range parts {
		n := binary.PutVarint(lenbuf[:], int64(len(p)))
		h.Write(lenbuf[:n])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (sk *storeKeys) repKey() string {
	return storeDigest(KindRepetitions, sk.rates)
}

func (sk *storeKeys) orderKey(strategy OrderStrategy, custom []sdf.ActorID) string {
	var extra []byte
	extra = binary.AppendVarint(extra, int64(strategy))
	if strategy == CustomOrder {
		for _, a := range custom {
			extra = binary.AppendVarint(extra, int64(a))
		}
	}
	return storeDigest(KindOrder, sk.rates, sk.delays, extra)
}

func (sk *storeKeys) schedKey(orderHash []byte, looping LoopAlg) string {
	var extra []byte
	extra = binary.AppendVarint(extra, int64(looping))
	parts := [][]byte{orderHash, sk.rates, sk.delays, extra}
	if looping == FlatLoops {
		parts = append(parts, sk.words)
	}
	return storeDigest(KindSchedule, parts...)
}

func (sk *storeKeys) lifeKey(schedHash []byte) string {
	return storeDigest(KindLifetimes, schedHash, sk.rates, sk.delays, sk.words)
}

// allocStoreKey needs no graph projection at all: allocation reads nothing
// but the lifetime intervals, whose bytes the chained hash pins, and the
// interval enumeration is name-free (lifetime.SortByStart/SortByDuration
// tie-break by stable input order, never by name).
func allocStoreKey(lifeHash []byte, strat alloc.Strategy) string {
	var extra []byte
	extra = binary.AppendVarint(extra, int64(strat))
	return storeDigest(KindAlloc, lifeHash, extra)
}

// partitionStoreKey covers the phased schedule's inputs: the lexical order
// (chained hash), the precedence structure (rates + delays — precedence and
// levels read delay against consumed-per-period, the cost model reads
// rates), and the worker count.
func partitionStoreKey(sk *storeKeys, orderHash []byte, partitions int) string {
	var extra []byte
	extra = binary.AppendVarint(extra, int64(partitions))
	return storeDigest(KindPartition, orderHash, sk.rates, sk.delays, extra)
}

// segallocStoreKey covers the segmented allocation's inputs: the partition
// artifact (chained hash) plus rates, delays and words — buffer sizes are
// (delay + TNSE) * words.
func segallocStoreKey(sk *storeKeys, partHash []byte) string {
	return storeDigest(KindSegalloc, partHash, sk.rates, sk.delays, sk.words)
}

// payloadHash is the chaining hash of one stored artifact's bytes.
func payloadHash(data []byte) []byte {
	sum := sha256.Sum256(data)
	return sum[:]
}

// Artifact encodings. All varint-based, all name-free, all deterministic
// (the determinism lint covers this package): encode(decode(b)) == b and
// decode(encode(a)) is semantically identical to a. Decoders validate
// shape against the live graph and reject trailing bytes, so a payload from
// a mismatched key version fails loudly into the recompute path instead of
// misdecoding.

type decoder struct {
	data []byte
	err  error
}

func (d *decoder) int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.err = fmt.Errorf("pass: truncated store payload")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// count reads a non-negative length bounded by max (guarding allocations
// against corrupted payloads).
func (d *decoder) count(max int) int {
	v := d.int64()
	if d.err == nil && (v < 0 || v > int64(max)) {
		d.err = fmt.Errorf("pass: store payload count %d out of range [0,%d]", v, max)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.data) != 0 {
		return fmt.Errorf("pass: %d trailing bytes in store payload", len(d.data))
	}
	return nil
}

func encodeRep(rep Repetitions) []byte {
	out := binary.AppendVarint(nil, int64(len(rep.Q)))
	for _, q := range rep.Q {
		out = binary.AppendVarint(out, q)
	}
	return out
}

func decodeRep(g *sdf.Graph, data []byte) (Repetitions, error) {
	d := &decoder{data: data}
	n := d.count(g.NumActors())
	if d.err == nil && n != g.NumActors() {
		return Repetitions{}, fmt.Errorf("pass: stored q has %d actors, graph has %d", n, g.NumActors())
	}
	q := make(sdf.Repetitions, n)
	for i := range q {
		q[i] = d.int64()
	}
	if err := d.finish(); err != nil {
		return Repetitions{}, err
	}
	return Repetitions{Q: q}, nil
}

func encodeOrder(ord Order) []byte {
	out := binary.AppendVarint(nil, int64(len(ord.Actors)))
	for _, a := range ord.Actors {
		out = binary.AppendVarint(out, int64(a))
	}
	return out
}

func decodeOrder(g *sdf.Graph, data []byte) (Order, error) {
	d := &decoder{data: data}
	n := d.count(g.NumActors())
	if d.err == nil && n != g.NumActors() {
		return Order{}, fmt.Errorf("pass: stored order has %d actors, graph has %d", n, g.NumActors())
	}
	actors := make([]sdf.ActorID, n)
	seen := make([]bool, n)
	for i := range actors {
		a := d.int64()
		if d.err != nil {
			break
		}
		if a < 0 || a >= int64(n) || seen[a] {
			return Order{}, fmt.Errorf("pass: stored order is not a permutation")
		}
		seen[a] = true
		actors[i] = sdf.ActorID(a)
	}
	if err := d.finish(); err != nil {
		return Order{}, err
	}
	return Order{Actors: actors}, nil
}

// Schedule terms are encoded structurally (preorder, tagged), not through
// the textual round-trip: the text form is canonical for humans, but the
// store must reproduce the exact term tree the DP built.
const (
	schedLeafTag = 0
	schedLoopTag = 1
)

func encodeSched(ls LoopedSchedule) []byte {
	out := binary.AppendVarint(nil, ls.DPCost)
	out = binary.AppendVarint(out, int64(len(ls.Schedule.Body)))
	for _, n := range ls.Schedule.Body {
		out = appendSchedNode(out, n)
	}
	return out
}

func appendSchedNode(out []byte, n *sched.Node) []byte {
	if n.IsLeaf() {
		out = binary.AppendVarint(out, schedLeafTag)
		out = binary.AppendVarint(out, n.Count)
		out = binary.AppendVarint(out, int64(n.Actor))
		return out
	}
	out = binary.AppendVarint(out, schedLoopTag)
	out = binary.AppendVarint(out, n.Count)
	out = binary.AppendVarint(out, int64(len(n.Children)))
	for _, c := range n.Children {
		out = appendSchedNode(out, c)
	}
	return out
}

func decodeSched(g *sdf.Graph, data []byte) (LoopedSchedule, error) {
	d := &decoder{data: data}
	cost := d.int64()
	// A single appearance schedule has at most one leaf per actor and, after
	// any sane looping pass, fewer internal nodes than leaves; 2n+1 bounds a
	// binarized tree, 4n leaves headroom for degenerate (but valid) nests.
	maxNodes := 4*g.NumActors() + 4
	nTop := d.count(maxNodes)
	body := make([]*sched.Node, 0, nTop)
	for i := 0; i < nTop; i++ {
		body = append(body, decodeSchedNode(g, d, maxNodes, 0))
	}
	if err := d.finish(); err != nil {
		return LoopedSchedule{}, err
	}
	return LoopedSchedule{Schedule: &sched.Schedule{Graph: g, Body: body}, DPCost: cost}, nil
}

func decodeSchedNode(g *sdf.Graph, d *decoder, maxNodes, depth int) *sched.Node {
	if d.err != nil {
		return &sched.Node{Count: 1}
	}
	if depth > maxNodes {
		d.err = fmt.Errorf("pass: stored schedule nests deeper than %d", maxNodes)
		return &sched.Node{Count: 1}
	}
	tag := d.int64()
	count := d.int64()
	if d.err == nil && count < 1 {
		d.err = fmt.Errorf("pass: stored schedule has loop count %d", count)
	}
	switch tag {
	case schedLeafTag:
		a := d.int64()
		if d.err == nil && (a < 0 || a >= int64(g.NumActors())) {
			d.err = fmt.Errorf("pass: stored schedule fires unknown actor %d", a)
		}
		return &sched.Node{Count: count, Actor: sdf.ActorID(a)}
	case schedLoopTag:
		nc := d.count(maxNodes)
		if d.err == nil && nc == 0 {
			d.err = fmt.Errorf("pass: stored schedule has an empty loop body")
		}
		children := make([]*sched.Node, 0, nc)
		for i := 0; i < nc; i++ {
			children = append(children, decodeSchedNode(g, d, maxNodes, depth+1))
		}
		return &sched.Node{Count: count, Children: children}
	default:
		if d.err == nil {
			d.err = fmt.Errorf("pass: unknown schedule node tag %d", tag)
		}
		return &sched.Node{Count: 1}
	}
}

func encodeLife(lf Lifetimes) []byte {
	out := binary.AppendVarint(nil, int64(len(lf.Intervals)))
	for _, iv := range lf.Intervals {
		out = binary.AppendVarint(out, iv.Size)
		out = binary.AppendVarint(out, iv.Start)
		out = binary.AppendVarint(out, iv.Dur)
		out = binary.AppendVarint(out, int64(len(iv.Periods)))
		for _, p := range iv.Periods {
			out = binary.AppendVarint(out, p.A)
			out = binary.AppendVarint(out, int64(p.Count))
		}
	}
	return out
}

// decodeLife rebuilds the Lifetimes artifact: intervals from the payload
// (names reconstructed from the live graph — names are deliberately not
// stored), the schedule tree recomputed from the schedule artifact
// (FromSchedule is deterministic and linear; the expensive part of the
// lifetimes pass is the per-edge peak simulation, which the payload spares),
// and a fresh enumeration cache.
func decodeLife(g *sdf.Graph, ls LoopedSchedule, data []byte) (Lifetimes, error) {
	d := &decoder{data: data}
	n := d.count(g.NumEdges())
	if d.err == nil && n != g.NumEdges() {
		return Lifetimes{}, fmt.Errorf("pass: stored lifetimes cover %d edges, graph has %d", n, g.NumEdges())
	}
	intervals := make([]*lifetime.Interval, n)
	for i := range intervals {
		e := g.Edge(sdf.EdgeID(i))
		iv := &lifetime.Interval{
			Name:  g.Actor(e.Src).Name + "->" + g.Actor(e.Dst).Name,
			Size:  d.int64(),
			Start: d.int64(),
			Dur:   d.int64(),
		}
		np := d.count(maxPeriods)
		if np > 0 {
			iv.Periods = make([]lifetime.Period, np)
			for j := range iv.Periods {
				iv.Periods[j] = lifetime.Period{A: d.int64(), Count: d.int64()}
			}
		}
		intervals[i] = iv
	}
	if err := d.finish(); err != nil {
		return Lifetimes{}, err
	}
	tree, err := schedtree.FromSchedule(ls.Schedule)
	if err != nil {
		return Lifetimes{}, err
	}
	return Lifetimes{Tree: tree, Intervals: intervals, packs: &packCache{}}, nil
}

// maxPeriods bounds the nested-period count of one decoded interval; real
// intervals carry one period per enclosing loop, far below this.
const maxPeriods = 1 << 16

// encodeAlloc stores placements as (edge index, offset) pairs in placement
// order: edge indices rather than interval copies, because downstream
// consumers (the simulator's OffsetOf, assembly) compare interval POINTERS
// against the Lifetimes artifact — the decode must hand back placements
// referencing the very intervals of the plan's in-memory Lifetimes artifact.
func encodeAlloc(lf Lifetimes, al Allocation) ([]byte, error) {
	idxOf := make(map[*lifetime.Interval]int, len(lf.Intervals))
	for i, iv := range lf.Intervals {
		idxOf[iv] = i
	}
	out := binary.AppendVarint(nil, al.Alloc.Total)
	out = binary.AppendVarint(out, int64(len(al.Alloc.Placements)))
	for _, p := range al.Alloc.Placements {
		i, ok := idxOf[p.Interval]
		if !ok {
			return nil, fmt.Errorf("pass: allocation places an interval missing from its lifetimes artifact")
		}
		out = binary.AppendVarint(out, int64(i))
		out = binary.AppendVarint(out, p.Offset)
	}
	return out, nil
}

// encodePartition stores the canonical (P, assign, phaseOf) encoding; the
// executable phase lists and worker loads are derived deterministically at
// decode (partition.Rebuild), which also re-validates the structural
// invariants against the live graph.
func encodePartition(part Partition) []byte {
	p := part.Part
	out := binary.AppendVarint(nil, int64(p.P))
	out = binary.AppendVarint(out, int64(len(p.Assign)))
	for _, w := range p.Assign {
		out = binary.AppendVarint(out, int64(w))
	}
	for _, ph := range p.PhaseOf {
		out = binary.AppendVarint(out, int64(ph))
	}
	return out
}

// maxPartitions bounds the decoded worker count; the service caps requests
// far below this.
const maxPartitions = 1 << 16

func decodePartition(g *sdf.Graph, rep Repetitions, ord Order, data []byte) (Partition, error) {
	d := &decoder{data: data}
	pw := d.count(maxPartitions)
	n := d.count(g.NumActors())
	if d.err == nil && n != g.NumActors() {
		return Partition{}, fmt.Errorf("pass: stored partition covers %d actors, graph has %d", n, g.NumActors())
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = int(d.int64())
	}
	phaseOf := make([]int, n)
	for i := range phaseOf {
		phaseOf[i] = int(d.int64())
	}
	if err := d.finish(); err != nil {
		return Partition{}, err
	}
	p, err := partition.Rebuild(g, rep.Q, ord.Actors, pw, assign, phaseOf)
	if err != nil {
		return Partition{}, err
	}
	return Partition{Part: p}, nil
}

// encodeSegalloc stores the segment layout and the per-edge routing +
// absolute offsets; the phase-axis intervals and buffer sizes are pure
// arithmetic over (graph, q, partition) and are re-derived at decode
// (partition.RebuildSeg) rather than persisted — no first-fit re-run either
// way, the stored offsets are authoritative.
func encodeSegalloc(seg SegmentedAllocation) []byte {
	s := seg.Seg
	out := binary.AppendVarint(nil, s.Total)
	out = binary.AppendVarint(out, int64(len(s.Segments)))
	for _, sg := range s.Segments {
		out = binary.AppendVarint(out, int64(sg.Worker))
		out = binary.AppendVarint(out, sg.Base)
		out = binary.AppendVarint(out, sg.Cells)
	}
	out = binary.AppendVarint(out, int64(len(s.EdgeSeg)))
	for i, si := range s.EdgeSeg {
		out = binary.AppendVarint(out, int64(si))
		out = binary.AppendVarint(out, s.Offsets[i])
	}
	return out
}

func decodeSegalloc(g *sdf.Graph, rep Repetitions, part Partition, data []byte) (SegmentedAllocation, error) {
	d := &decoder{data: data}
	total := d.int64()
	ns := d.count(maxPartitions + 1)
	if d.err == nil && ns != part.Part.P+1 {
		return SegmentedAllocation{}, fmt.Errorf("pass: stored segalloc has %d segments for %d workers", ns, part.Part.P)
	}
	segments := make([]partition.Segment, ns)
	for i := range segments {
		segments[i] = partition.Segment{
			Worker: int(d.int64()),
			Base:   d.int64(),
			Cells:  d.int64(),
		}
	}
	ne := d.count(g.NumEdges())
	if d.err == nil && ne != g.NumEdges() {
		return SegmentedAllocation{}, fmt.Errorf("pass: stored segalloc covers %d edges, graph has %d", ne, g.NumEdges())
	}
	edgeSeg := make([]int, ne)
	offsets := make([]int64, ne)
	for i := range edgeSeg {
		edgeSeg[i] = int(d.int64())
		offsets[i] = d.int64()
	}
	if err := d.finish(); err != nil {
		return SegmentedAllocation{}, err
	}
	s, err := partition.RebuildSeg(g, rep.Q, part.Part, edgeSeg, offsets, segments, total)
	if err != nil {
		return SegmentedAllocation{}, err
	}
	return SegmentedAllocation{Seg: s}, nil
}

// decodeAlloc reconstructs one allocator leaf against the in-memory
// Lifetimes artifact. The result skips alloc.Verify: the allocation was
// verified when computed, the frame checksum pins its integrity, and the
// chained key pins that these intervals are the ones it was computed for.
func decodeAlloc(lf Lifetimes, strat alloc.Strategy, data []byte) (Allocation, error) {
	d := &decoder{data: data}
	total := d.int64()
	n := d.count(len(lf.Intervals))
	if d.err == nil && n != len(lf.Intervals) {
		return Allocation{}, fmt.Errorf("pass: stored allocation places %d intervals, lifetimes has %d", n, len(lf.Intervals))
	}
	placements := make([]alloc.Placement, n)
	seen := make([]bool, len(lf.Intervals))
	for i := range placements {
		idx := d.count(len(lf.Intervals) - 1)
		off := d.int64()
		if d.err != nil {
			break
		}
		if seen[idx] {
			return Allocation{}, fmt.Errorf("pass: stored allocation places edge %d twice", idx)
		}
		seen[idx] = true
		placements[i] = alloc.Placement{Interval: lf.Intervals[idx], Offset: off}
	}
	if err := d.finish(); err != nil {
		return Allocation{}, err
	}
	return Allocation{Strategy: strat, Alloc: &alloc.Allocation{Placements: placements, Total: total}}, nil
}
