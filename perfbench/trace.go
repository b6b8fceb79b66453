package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a compile, a
// request, a set-up step) share Req; Parent is 0 for an operation's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// AllocBytes is the heap allocated while the span was open, shared
	// evenly with spans open at the same time (see allocMeter).
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	// meter, when set, attributes heap allocation to spans.
	meter *allocMeter
}

func newTracer(measureAlloc bool) *tracer {
	t := &tracer{origin: time.Now()}
	if measureAlloc {
		t.meter = &allocMeter{open: map[int64]bool{}}
	}
	return t
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	if t.meter != nil {
		t.meter.tick(t.spans)
		t.meter.open[id] = true
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.origin))})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.meter != nil {
		t.meter.tick(t.spans)
		delete(t.meter.open, id)
	}
	t.spans[id-1].End = int64(time.Since(t.origin))
}

// allocMeter reads the heap counter at every span boundary and splits the
// bytes allocated since the previous boundary evenly over the spans open in
// between. Plan levels run sibling nodes concurrently (the allocator leaves
// of one point, for instance), so an even split is the best attribution an
// outside observer can make; siblings are usually of one pass kind.
type allocMeter struct {
	last int64
	open map[int64]bool
}

func (m *allocMeter) tick(spans []span) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := int64(ms.TotalAlloc)
	delta := now - m.last
	m.last = now
	if len(m.open) == 0 || delta <= 0 {
		return
	}
	share := delta / int64(len(m.open))
	for id := range m.open {
		spans[id-1].AllocBytes += share
	}
}

// layerTotals is the per-name sum of self time and attributed heap bytes.
type layerTotals struct {
	self  map[string]time.Duration
	alloc map[string]int64
}

// totals computes every span's self time — its duration minus the part of
// it that its children cover — and sums self time and heap bytes by span
// name. Spans still open are ignored.
func (t *tracer) totals() layerTotals {
	lt := layerTotals{self: map[string]time.Duration{}, alloc: map[string]int64{}}
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		covered := coverage(s.Start, s.End, children[s.ID])
		lt.self[s.Name] += time.Duration(s.End - s.Start - covered)
		lt.alloc[s.Name] += s.AllocBytes
	}
	return lt
}

// coverage is the length of [start, end) covered by the union of the
// children's intervals.
func coverage(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, start), min(k.End, end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := int64(0), int64(-1), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// write stores every span as JSON in dir/<name>.json.
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name+".json")
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("marshal spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
