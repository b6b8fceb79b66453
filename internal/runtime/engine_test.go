package runtime

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sdf"
	"repro/internal/systems"
)

// sumFires gives every actor a body that sums its inputs in edge and token
// order and emits that sum plus k as output token k. With reuse, each
// closure returns the same output buffers on every firing; without, it
// allocates fresh ones each time.
func sumFires(g *sdf.Graph, reuse bool) map[sdf.ActorID]Fire {
	fires := make(map[sdf.ActorID]Fire, g.NumActors())
	for _, a := range g.Actors() {
		outs := g.Out(a.ID)
		mk := func() [][]float64 {
			out := make([][]float64, len(outs))
			for i, e := range outs {
				out[i] = make([]float64, g.Edge(e).Prod)
			}
			return out
		}
		kept := mk()
		fires[a.ID] = func(inputs [][]float64) [][]float64 {
			var acc float64
			for _, in := range inputs {
				for _, v := range in {
					acc += v
				}
			}
			out := kept
			if !reuse {
				out = mk()
			}
			for _, vals := range out {
				for k := range vals {
					vals[k] = acc + float64(k)
				}
			}
			return out
		}
	}
	return fires
}

// compileAt compiles g with verification, partitioned when p >= 2.
func compileAt(tb testing.TB, g *sdf.Graph, p int) *core.Result {
	tb.Helper()
	res, err := core.Compile(g, core.Options{Verify: true, Partitions: p})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// engineAt builds the sequential engine (p = 1) or the phased engine.
func engineAt(tb testing.TB, g *sdf.Graph, p int, fires map[sdf.ActorID]Fire) (run func() error, tokensOn func(sdf.EdgeID) []float64) {
	tb.Helper()
	res := compileAt(tb, g, p)
	if p == 1 {
		eng, err := New(res, fires)
		if err != nil {
			tb.Fatal(err)
		}
		return eng.RunPeriod, eng.TokensOn
	}
	eng, err := NewPhased(res, fires)
	if err != nil {
		tb.Fatal(err)
	}
	return eng.RunPeriod, eng.TokensOn
}

// TestRunPeriodAllocs pins the steady state: with non-allocating Fires the
// sequential engine allocates nothing per period, and the phased engine
// only what spawning its P-1 worker goroutines costs, whatever the firing
// count.
func TestRunPeriodAllocs(t *testing.T) {
	for _, g := range []*sdf.Graph{systems.SatelliteReceiver(), systems.CDDAT()} {
		for _, p := range []int{1, 2} {
			run, _ := engineAt(t, g, p, sumFires(g, true))
			allocs := testing.AllocsPerRun(20, func() {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			})
			limit := float64(2 * (p - 1))
			if allocs > limit {
				t.Errorf("%s at P=%d: %v allocations per period, want <= %v", g.Name, p, allocs, limit)
			}
		}
	}
}

// delayed is a multirate graph whose delays keep tokens queued between
// periods, so TokensOn has something to compare.
func delayed() *sdf.Graph {
	g := sdf.New("delayed")
	a, b, c, d := g.AddActor("A"), g.AddActor("B"), g.AddActor("C"), g.AddActor("D")
	g.AddEdge(a, b, 3, 2, 2)
	g.AddEdge(b, c, 2, 3, 1)
	g.AddEdge(a, d, 1, 1, 0)
	g.AddEdge(d, c, 1, 1, 3)
	return g
}

// TestFireBufferContract: a Fire that returns the same output buffers every
// firing leaves the same tokens, bit for bit, as one that allocates fresh
// outputs, on both engines.
func TestFireBufferContract(t *testing.T) {
	g := delayed()
	for _, p := range []int{1, 2} {
		runA, tokA := engineAt(t, g, p, sumFires(g, true))
		runB, tokB := engineAt(t, g, p, sumFires(g, false))
		for period := 0; period < 4; period++ {
			if err := runA(); err != nil {
				t.Fatal(err)
			}
			if err := runB(); err != nil {
				t.Fatal(err)
			}
		}
		nonzero := false
		for _, e := range g.Edges() {
			a, b := tokA(e.ID), tokB(e.ID)
			if len(a) != len(b) {
				t.Fatalf("P=%d edge %d: %d tokens with reused outputs, %d with fresh", p, e.ID, len(a), len(b))
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Errorf("P=%d edge %d token %d: %v with reused outputs, %v with fresh", p, e.ID, i, a[i], b[i])
				}
				nonzero = nonzero || a[i] != 0
			}
		}
		if !nonzero {
			t.Errorf("P=%d: every queued token is 0; the comparison is vacuous", p)
		}
	}
}

// TestDelayFillsBuffer: a feedback edge whose initial tokens fill its whole
// buffer starts with its write cursor wrapped to 0, and the loop computes the
// right values period after period.
func TestDelayFillsBuffer(t *testing.T) {
	g := sdf.New("fill")
	a := g.AddActor("A")
	b := g.AddActor("B")
	g.AddEdge(a, b, 2, 2, 0)
	fb := g.AddEdge(b, a, 2, 2, 2)
	res := compile(t, g)
	eng, err := New(res, map[sdf.ActorID]Fire{
		a: func(in [][]float64) [][]float64 { return [][]float64{{in[0][0] + 1, in[0][1] + 1}} },
		b: func(in [][]float64) [][]float64 { return [][]float64{{2 * in[0][0], 3 * in[0][1]}} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.edges[fb]; int64(len(st.buf)) != 2 || st.wr != 0 || st.count != 2 {
		t.Fatalf("feedback edge: size %d wr %d count %d, want 2 0 2", len(st.buf), st.wr, st.count)
	}
	x, y := 0.0, 0.0
	for p := 0; p < 5; p++ {
		if err := eng.RunPeriod(); err != nil {
			t.Fatal(err)
		}
		x, y = 2*(x+1), 3*(y+1)
		if got := eng.TokensOn(fb); len(got) != 2 || got[0] != x || got[1] != y {
			t.Fatalf("period %d: feedback holds %v, want [%v %v]", p, got, x, y)
		}
	}
}

// TestPushWrapsBuffer: a Push that runs past the end of an edge's buffer
// continues at its start, and TokensOn still reports the queue oldest first.
func TestPushWrapsBuffer(t *testing.T) {
	g := sdf.New("wrap")
	a := g.AddActor("A")
	b := g.AddActor("B")
	e := g.AddEdge(a, b, 2, 2, 1)
	res := compile(t, g)
	n := 0.0
	eng, err := New(res, map[sdf.ActorID]Fire{
		a: func([][]float64) [][]float64 { n += 2; return [][]float64{{n - 1, n}} },
		b: func([][]float64) [][]float64 { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if size := len(eng.edges[e].buf); size != 3 {
		t.Fatalf("edge size %d, want 3 (one delay token plus one firing's 2)", size)
	}
	// Each period writes 2 tokens and reads 2, so after two periods the
	// queue is A's last token alone, in cell 1, and wr is 2.
	for p := 0; p < 2; p++ {
		if err := eng.RunPeriod(); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.edges[e]; st.rd != 1 || st.wr != 2 {
		t.Fatalf("rd %d wr %d, want 1 2", st.rd, st.wr)
	}
	if err := eng.Push(e, 7, 8); err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 7, 8}
	if got := eng.TokensOn(e); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("TokensOn = %v, want %v", got, want)
	}
	if st := eng.edges[e]; st.wr != 1 || eng.edges[e].buf[0] != 8 {
		t.Errorf("wr %d, cell 0 = %v; want the Push to wrap to 1 and 8", st.wr, st.buf[0])
	}
}

func benchmarkRunPeriod(b *testing.B, p int) {
	for _, g := range []*sdf.Graph{
		systems.SatelliteReceiver(),
		systems.TwoSidedFilterbank(5, systems.Ratio235),
		systems.CDDAT(),
	} {
		b.Run(g.Name, func(b *testing.B) {
			run, _ := engineAt(b, g, p, sumFires(g, true))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineRunPeriod times one sequential period (ns/op is ns per
// period) with non-allocating Fires.
func BenchmarkEngineRunPeriod(b *testing.B) { benchmarkRunPeriod(b, 1) }

// BenchmarkPhasedRunPeriod times one P=2 phased period.
func BenchmarkPhasedRunPeriod(b *testing.B) { benchmarkRunPeriod(b, 2) }
