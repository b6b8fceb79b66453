package pass_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/service"
	"repro/internal/systems"
)

var updateEquivalence = flag.Bool("update", false, "rewrite testdata/equivalence.txt from the current compiler")

const equivalenceFixture = "testdata/equivalence.txt"

type namedGraph struct {
	name string
	g    *sdf.Graph
}

// equivalenceGraphs is the fixture population: the 200 random acyclic
// graphs of the service's planner differential (seeds 1000-1199), random
// DAGs closed into cycles by a delay-carrying back edge, the sixteen
// Table 1 systems, CDDAT and the echo canceller.
func equivalenceGraphs() []namedGraph {
	var out []namedGraph
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g := randsdf.Graph(rng, randsdf.Config{Actors: 3 + rng.Intn(8), EdgeProb: 0.3, Window: 4})
		g.Name = fmt.Sprintf("diff%d", trial)
		out = append(out, namedGraph{g.Name, g})
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		g := randsdf.Graph(rng, randsdf.Config{Actors: 4 + rng.Intn(8)})
		q, err := g.Repetitions()
		if err != nil {
			panic(err)
		}
		src := sdf.ActorID(rng.Intn(g.NumActors()))
		dst := sdf.ActorID(rng.Intn(g.NumActors()))
		if src == dst {
			continue
		}
		gg := gcd(q[src], q[dst])
		prod, cons := q[dst]/gg, q[src]/gg
		g.AddEdge(src, dst, prod, cons, prod*q[src])
		g.Name = fmt.Sprintf("backedge%d", trial)
		out = append(out, namedGraph{g.Name, g})
	}
	for i, g := range systems.Table1Systems() {
		out = append(out, namedGraph{fmt.Sprintf("table1_%02d_%s", i, g.Name), g})
	}
	out = append(out, namedGraph{"cddat", systems.CDDAT()}, namedGraph{"echo", systems.EchoCanceller()})
	return out
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// equivalenceDigest compiles g at every check.PipelineConfigs point through
// core.CompileGeneralContext and hashes, in point order, each point's
// service artifact bytes, its error text and its check.Pipeline verdict.
func equivalenceDigest(t *testing.T, g *sdf.Graph) string {
	t.Helper()
	h := sha256.New()
	for i, cfg := range check.PipelineConfigs() {
		wire := service.CompileOptions{Partitions: cfg.Partitions}
		var err error
		if wire.Strategy, err = service.StrategyName(cfg.Strategy); err != nil {
			t.Fatal(err)
		}
		if wire.Looping, err = service.LoopingName(cfg.Looping); err != nil {
			t.Fatal(err)
		}
		for _, a := range cfg.Allocators {
			name, err := service.AllocatorName(a)
			if err != nil {
				t.Fatal(err)
			}
			wire.Allocators = append(wire.Allocators, name)
		}
		var art []byte
		errText, verdict := "", ""
		res, cerr := core.CompileGeneralContext(context.Background(), g, cfg.Options())
		if cerr != nil {
			errText = cerr.Error()
		} else {
			if art, err = service.ArtifactBytes(res, wire); err != nil {
				t.Fatal(err)
			}
			if v := check.Pipeline(res, check.Options{}); v != nil {
				verdict = v.Error()
			}
		}
		fmt.Fprintf(h, "point %d\n%d\n", i, len(art))
		h.Write(art)
		fmt.Fprintf(h, "\nerr %q\nverdict %q\n", errText, verdict)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEquivalenceFixture pins the compiler's observable output: for every
// fixture graph, one digest over the artifacts, error texts and oracle
// verdicts of the full configuration grid. The fixture was recorded from
// the sequential pipeline that predated the single plan executor, so any
// drift in the executor (or anywhere below it) shows up here. Regenerate
// with -update only for an intentional output change. -short checks every
// eighth graph.
func TestEquivalenceFixture(t *testing.T) {
	graphs := equivalenceGraphs()
	if *updateEquivalence {
		var b strings.Builder
		for _, ng := range graphs {
			fmt.Fprintf(&b, "%s %s\n", ng.name, equivalenceDigest(t, ng.g))
		}
		if err := os.MkdirAll(filepath.Dir(equivalenceFixture), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(equivalenceFixture, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(equivalenceFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed fixture line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(graphs) {
		t.Fatalf("fixture has %d graphs, population has %d", len(want), len(graphs))
	}
	for i, ng := range graphs {
		if testing.Short() && i%8 != 0 {
			continue
		}
		if got := equivalenceDigest(t, ng.g); got != want[ng.name] {
			t.Errorf("%s: digest %s, fixture %s", ng.name, got, want[ng.name])
		}
	}
}
