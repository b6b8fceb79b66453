// Command sdfc is the shared-memory SDF compiler driver: it reads an SDF
// graph (from a .sdf file or a named built-in benchmark system), runs the
// full scheduling/lifetime/allocation flow of Murthy & Bhattacharyya, prints
// the resulting schedule and memory metrics, and optionally emits a C
// implementation.
//
// Usage:
//
//	sdfc -system satrec
//	sdfc -graph mygraph.sdf -strategy apgan -looping dppo
//	sdfc -system cddat -emit-c out.c
//	sdfc -system cddat -server localhost:8347
//
// With -server ADDR the compilation is delegated to a running sdfd daemon
// (start one with `sdfd` or `make serve`), which caches artifacts by
// content address so repeated compilations of the same graph are free.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/alloc"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/lifetime"
	"repro/internal/nodestore"
	"repro/internal/partition"
	"repro/internal/pass"
	"repro/internal/regularity"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/service"
	"repro/internal/systems"
)

func main() {
	fs := flag.NewFlagSet("sdfc", flag.ContinueOnError)
	var (
		graphFile = fs.String("graph", "", "path to a .sdf graph file")
		system    = fs.String("system", "", "built-in benchmark system name (see -list)")
		list      = fs.Bool("list", false, "list built-in systems and exit")
		strategy  = fs.String("strategy", "rpmc", "lexical order strategy: rpmc | apgan")
		loopingF  = fs.String("looping", "sdppo", "loop hierarchy: sdppo | dppo | chain | flat")
		allocF    = fs.String("alloc", "ffdur,ffstart", "comma-separated allocators: ffdur | ffstart | bfdur")
		emitC     = fs.String("emit-c", "", "write generated C implementation to this file")
		emitTC    = fs.String("emit-threaded-c", "", "write generated pthread C implementation to this file (needs -partitions >= 2)")
		emitVHDL  = fs.String("emit-vhdl", "", "write generated behavioral VHDL to this file")
		partsF    = fs.Int("partitions", 0, "compile a P-way barrier-phased parallel schedule (0/1 = sequential)")
		verify    = fs.Bool("verify", true, "run the token-level shared-memory simulator")
		doMerge   = fs.Bool("merge", false, "apply the Sec. 12 buffer-merging extension")
		chart     = fs.Bool("chart", false, "print the buffer lifetime chart and memory map")
		dotOut    = fs.String("dot", "", "write the graph in Graphviz DOT form to this file")
		quiet     = fs.Bool("q", false, "print only the final metrics line")
		server    = fs.String("server", "", "delegate compilation to an sdfd daemon at this address (e.g. localhost:8347)")
		storeDir  = fs.String("store", "", "local persistent pass-node store directory; recompilations reuse unaffected pipeline stages (local-only)")
		storeMB   = fs.Int64("store-mb", 256, "pass-node store budget in MiB (<= 0 disables)")
	)
	if code := core.ParseCLI(fs, os.Args[1:]); code >= 0 {
		os.Exit(code)
	}

	if *list {
		names := builtinNames()
		fmt.Println(strings.Join(names, "\n"))
		return
	}
	g, err := loadGraph(*graphFile, *system)
	if err != nil {
		fatal(err)
	}
	if *server != "" {
		if *chart || *dotOut != "" {
			fatal(fmt.Errorf("-chart and -dot are local-only; drop them or drop -server"))
		}
		if *storeDir != "" {
			fatal(fmt.Errorf("-store is local-only (the daemon has its own -store flag); drop it or drop -server"))
		}
		runRemote(*server, g, service.CompileOptions{
			Strategy:   *strategy,
			Looping:    *loopingF,
			Allocators: splitAllocators(*allocF),
			Verify:     *verify,
			Merging:    *doMerge,
			Partitions: *partsF,
			EmitC:      *emitC != "" || *emitTC != "",
			EmitVHDL:   *emitVHDL != "",
		}, *emitC, *emitTC, *emitVHDL, *quiet)
		return
	}
	opts := core.Options{Verify: *verify, Merging: *doMerge, Partitions: *partsF}
	switch *strategy {
	case "rpmc":
		opts.Strategy = core.RPMC
	case "apgan":
		opts.Strategy = core.APGAN
	default:
		fatal(fmt.Errorf("unknown strategy %q", *strategy))
	}
	switch *loopingF {
	case "sdppo":
		opts.Looping = core.SDPPOLoops
	case "dppo":
		opts.Looping = core.DPPOLoops
	case "chain":
		opts.Looping = core.ChainPreciseLoops
	case "flat":
		opts.Looping = core.FlatLoops
	default:
		fatal(fmt.Errorf("unknown looping %q", *loopingF))
	}
	for _, a := range splitAllocators(*allocF) {
		switch a {
		case "ffdur":
			opts.Allocators = append(opts.Allocators, alloc.FirstFitDuration)
		case "ffstart":
			opts.Allocators = append(opts.Allocators, alloc.FirstFitStart)
		case "bfdur":
			opts.Allocators = append(opts.Allocators, alloc.BestFitDuration)
		default:
			fatal(fmt.Errorf("unknown allocator %q", a))
		}
	}

	// A nil *nodestore.Store inside the interface would defeat the plan's
	// nil check, so the store stays an untyped nil without -store.
	var store pass.Store
	if *storeDir != "" {
		st, err := nodestore.Open(*storeDir, *storeMB<<20)
		if err != nil {
			fatal(err)
		}
		store = st
	}
	outs, err := pass.RunGridOutcomes(context.Background(), g, []core.Options{opts}, pass.PlanConfig{Store: store})
	if err != nil {
		fatal(err)
	}
	res := outs[0].Result
	if outs[0].Err != nil {
		fatal(outs[0].Err)
	}
	if !*quiet {
		fmt.Printf("graph      : %s (%d actors, %d edges)\n", g.Name, g.NumActors(), g.NumEdges())
		fmt.Printf("order      : %s + %s\n", opts.Strategy, opts.Looping)
		fmt.Printf("schedule   : %s\n", res.Schedule)
		fmt.Printf("bmlb       : %d\n", res.Metrics.BMLB)
		fmt.Printf("non-shared : %d  (bufmem of this schedule, EQ 1)\n", res.Metrics.NonSharedBufMem)
		fmt.Printf("dp estimate: %d\n", res.Metrics.DPCost)
		fmt.Printf("mco / mcp  : %d / %d\n", res.Metrics.MCO, res.Metrics.MCP)
		for _, kv := range sortedTotalsList(res.Metrics.AllocTotals) {
			fmt.Printf("alloc %-7s: %d\n", kv.name, kv.total)
		}
	}
	if *chart {
		fmt.Println("\nbuffer lifetimes (one column per schedule step):")
		fmt.Print(lifetime.Chart(res.Intervals, res.Tree.TotalDur, 96))
		fmt.Println("\nmemory map:")
		for _, p := range res.Best.Placements {
			fmt.Printf("  [%6d,%6d)  %s\n", p.Offset, p.Offset+p.Interval.Size, p.Interval.Name)
		}
	}
	impr := 0.0
	if res.Metrics.NonSharedBufMem > 0 {
		impr = 100 * float64(res.Metrics.NonSharedBufMem-res.Metrics.SharedTotal) /
			float64(res.Metrics.NonSharedBufMem)
	}
	fmt.Printf("shared memory: %d cells (%s), %.1f%% below non-shared\n",
		res.Metrics.SharedTotal, res.BestBy, impr)
	if *doMerge && res.Metrics.Merges > 0 {
		fmt.Printf("with merging : %d cells (%d buffer pairs folded)\n",
			res.Metrics.MergedTotal, res.Metrics.Merges)
	}
	if res.Partition != nil {
		fmt.Printf("partitioned  : %d workers, %d phases/period, %d cells segmented (%.2fx sequential)\n",
			res.Partition.P, res.Partition.NumPhases, res.Segmented.Total,
			float64(res.Segmented.Total)/float64(max64(res.Metrics.SharedTotal, 1)))
		for _, s := range res.Segmented.Segments {
			owner := fmt.Sprintf("worker %d", s.Worker)
			if s.Worker == partition.SharedWorker {
				owner = "shared"
			}
			fmt.Printf("  segment [%6d,%6d)  %s\n", s.Base, s.Base+s.Cells, owner)
		}
	}

	if *emitC != "" {
		src := codegen.GenerateC(res)
		if err := os.WriteFile(*emitC, []byte(src), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *emitC, len(src))
	}
	if *emitTC != "" {
		src := codegen.GenerateThreadedC(res)
		if src == "" {
			fatal(fmt.Errorf("-emit-threaded-c needs -partitions >= 2"))
		}
		if err := os.WriteFile(*emitTC, []byte(src), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *emitTC, len(src))
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fatal(err)
		}
		if err := sdfio.WriteDOT(f, g); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotOut)
	}
	if *emitVHDL != "" {
		src := codegen.GenerateVHDL(res)
		if err := os.WriteFile(*emitVHDL, []byte(src), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *emitVHDL, len(src))
	}
}

// splitAllocators turns the -alloc flag value into a clean name list.
func splitAllocators(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// runRemote delegates the compilation to an sdfd daemon and prints the same
// summary the local path does, reconstructed from the JSON artifact.
func runRemote(addr string, g *sdf.Graph, opts service.CompileOptions, emitC, emitTC, emitVHDL string, quiet bool) {
	text, err := sdfio.CanonicalString(g)
	if err != nil {
		fatal(err)
	}
	client := &service.Client{BaseURL: addr}
	resp, err := client.Compile(service.CompileRequest{Graph: text, Options: opts}, false)
	if err != nil {
		fatal(err)
	}
	var art service.Artifact
	if err := json.Unmarshal(resp.Artifact, &art); err != nil {
		fatal(fmt.Errorf("decoding artifact: %w", err))
	}
	if !quiet {
		fmt.Printf("graph      : %s (%d actors, %d edges)\n", art.Graph, art.Actors, art.Edges)
		fmt.Printf("order      : %s + %s\n", art.Options.Strategy, art.Options.Looping)
		fmt.Printf("schedule   : %s\n", art.Schedule)
		fmt.Printf("bmlb       : %d\n", art.Metrics.BMLB)
		fmt.Printf("non-shared : %d  (bufmem of this schedule, EQ 1)\n", art.Metrics.NonSharedBufMem)
		fmt.Printf("dp estimate: %d\n", art.Metrics.DPCost)
		fmt.Printf("mco / mcp  : %d / %d\n", art.Metrics.MCO, art.Metrics.MCP)
		for _, a := range art.Allocations {
			fmt.Printf("alloc %-7s: %d\n", a.Allocator, a.Total)
		}
		cached := "compiled"
		if resp.Cached {
			cached = "cache hit"
		} else if resp.Coalesced {
			cached = "coalesced"
		}
		fmt.Printf("server     : %s, %s, digest %s\n", addr, cached, resp.Digest)
	}
	impr := 0.0
	if art.Metrics.NonSharedBufMem > 0 {
		impr = 100 * float64(art.Metrics.NonSharedBufMem-art.Metrics.SharedTotal) /
			float64(art.Metrics.NonSharedBufMem)
	}
	fmt.Printf("shared memory: %d cells (%s), %.1f%% below non-shared\n",
		art.Metrics.SharedTotal, art.Best, impr)
	if opts.Merging && art.Metrics.Merges > 0 {
		fmt.Printf("with merging : %d cells (%d buffer pairs folded)\n",
			art.Metrics.MergedTotal, art.Metrics.Merges)
	}
	if art.Partition != nil {
		fmt.Printf("partitioned  : %d workers, %d phases/period, %d cells segmented (%.2fx sequential)\n",
			art.Partition.Workers, art.Partition.Phases, art.Partition.ParallelTotal,
			float64(art.Partition.ParallelTotal)/float64(max64(art.Partition.SASTotal, 1)))
		for _, s := range art.Partition.Segments {
			owner := fmt.Sprintf("worker %d", s.Worker)
			if s.Worker == partition.SharedWorker {
				owner = "shared"
			}
			fmt.Printf("  segment [%6d,%6d)  %s\n", s.Base, s.Base+s.Cells, owner)
		}
	}
	if emitC != "" {
		if err := os.WriteFile(emitC, []byte(art.C), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", emitC, len(art.C))
	}
	if emitTC != "" {
		if art.ThreadedC == "" {
			fatal(fmt.Errorf("-emit-threaded-c needs -partitions >= 2"))
		}
		if err := os.WriteFile(emitTC, []byte(art.ThreadedC), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", emitTC, len(art.ThreadedC))
	}
	if emitVHDL != "" {
		if err := os.WriteFile(emitVHDL, []byte(art.VHDL), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", emitVHDL, len(art.VHDL))
	}
}

type kv struct {
	name  string
	total int64
}

func sortedTotalsList(m map[string]int64) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func loadGraph(file, system string) (*sdf.Graph, error) {
	switch {
	case file != "" && system != "":
		return nil, fmt.Errorf("use -graph or -system, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sdfio.Parse(f)
	case system != "":
		g, ok := builtins()[system]
		if !ok {
			return nil, fmt.Errorf("unknown system %q (try -list)", system)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("need -graph FILE or -system NAME")
	}
}

func builtins() map[string]*sdf.Graph {
	m := map[string]*sdf.Graph{}
	for _, g := range systems.Table1Systems() {
		m[g.Name] = g
	}
	for _, g := range []*sdf.Graph{
		systems.CDDAT(),
		systems.Homogeneous(4, 4),
		systems.EchoCanceller(),
		regularity.FIR(8),
	} {
		m[g.Name] = g
	}
	return m
}

func builtinNames() []string {
	var names []string
	for n := range builtins() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdfc:", err)
	os.Exit(1)
}
