package codegen

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/randsdf"
	"repro/internal/sdf"
	"repro/internal/systems"
)

var updateEmit = flag.Bool("update", false, "rewrite testdata/emit.txt from the current emitters")

const emitFixture = "testdata/emit.txt"

type emitGraph struct {
	name string
	g    *sdf.Graph
}

// emitGraphs is the fixture population: the sixteen Table 1 systems, CDDAT,
// the echo canceller, and forty seeded random graphs with delays and some
// vector (multi-word) edges.
func emitGraphs() []emitGraph {
	var out []emitGraph
	for i, g := range systems.Table1Systems() {
		out = append(out, emitGraph{fmt.Sprintf("table1_%02d_%s", i, g.Name), g})
	}
	out = append(out, emitGraph{"cddat", systems.CDDAT()}, emitGraph{"echo", systems.EchoCanceller()})
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		g := randsdf.Graph(rng, randsdf.Config{Actors: 3 + rng.Intn(10), DelayProb: 0.3})
		for _, e := range g.Edges() {
			if rng.Intn(4) == 0 {
				g.SetWords(e.ID, 2+rng.Int63n(3))
			}
		}
		g.Name = fmt.Sprintf("rand%d", trial)
		out = append(out, emitGraph{g.Name, g})
	}
	return out
}

// emitDigest compiles g sequentially and at Partitions 2 and 3 and hashes,
// in that order, each compile's error text and the bytes of GenerateC,
// GenerateThreadedC and GenerateVHDL.
func emitDigest(g *sdf.Graph) string {
	h := sha256.New()
	for _, p := range []int{0, 2, 3} {
		res, err := core.CompileGeneral(g, core.Options{Partitions: p})
		fmt.Fprintf(h, "partitions %d\n", p)
		if err != nil {
			fmt.Fprintf(h, "err %q\n", err.Error())
			continue
		}
		for _, src := range []string{GenerateC(res), GenerateThreadedC(res), GenerateVHDL(res)} {
			fmt.Fprintf(h, "%d\n%s\n", len(src), src)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEmitFixture pins the generated code byte for byte: for every fixture
// graph, one digest over the sequential C, threaded C and VHDL of its
// sequential and partitioned compiles. Regenerate with -update only for an
// intentional change to the emitted code.
func TestEmitFixture(t *testing.T) {
	graphs := emitGraphs()
	if *updateEmit {
		var b strings.Builder
		for _, eg := range graphs {
			fmt.Fprintf(&b, "%s %s\n", eg.name, emitDigest(eg.g))
		}
		if err := os.MkdirAll(filepath.Dir(emitFixture), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(emitFixture, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(emitFixture)
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
	for _, eg := range graphs {
		if got := emitDigest(eg.g); got != want[eg.name] {
			t.Errorf("%s: digest %s, fixture %s", eg.name, got, want[eg.name])
		}
	}
}
