package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/check"
	"repro/internal/sdf"
	"repro/internal/sdfio"
	"repro/internal/service"
)

// daemonReplay drives the crasher corpus (plus n fresh random graphs) through
// one or more running sdfd daemons and asserts, for every (graph,
// configuration) pair, that the daemon's artifact bytes are identical to what
// the in-process pipeline produces. Both sides render through
// service.CompileArtifact, so any divergence means the daemon cache,
// singleflight, or cluster routing layer corrupted a result — exactly the bug
// class a differential fuzzer is for.
//
// Each graph's configurations are also posted as one /v1/grid request, first,
// while the daemon's cache is still cold for them, so the grid batch runner
// (entry resolution plus one shared plan) computes every entry. Each grid
// entry must then carry the same artifact bytes, or the same error, as that
// configuration's /v1/compile answer.
//
// With a comma-separated address list the replay becomes a cluster
// differential: comparisons round-robin over the peers (so every node serves
// requests it does not own and must proxy or peer-fetch), and each identical
// artifact is additionally re-fetched by digest from a *different* peer,
// asserting the content-addressed bytes are one sequence cluster-wide.
//
// Returns the number of divergences found.
func daemonReplay(addrList string, f *fuzzer, n int) int {
	var clients []*service.Client
	for _, addr := range strings.Split(addrList, ",") {
		if addr = strings.TrimSpace(addr); addr == "" {
			continue
		}
		c := &service.Client{BaseURL: addr}
		if err := c.Healthz(); err != nil {
			fmt.Fprintf(os.Stderr, "sdffuzz: daemon %s unreachable: %v\n", addr, err)
			return 1
		}
		clients = append(clients, c)
	}
	if len(clients) == 0 {
		fmt.Fprintln(os.Stderr, "sdffuzz: -daemon needs at least one address")
		return 1
	}
	graphs := corpusGraphs(f.crashDir)
	fmt.Printf("sdffuzz: replaying %d corpus graphs + %d random graphs against %d daemon(s) at %s\n",
		len(graphs), n, len(clients), addrList)
	for i := 0; i < n; i++ {
		graphs = append(graphs, f.randomGraph())
	}

	opts := wireConfigs(f.configs)
	divergences, skipped, compared, crossFetched, gridChecked := 0, 0, 0, 0, 0
	turn := 0
	for _, g := range graphs {
		// Round-trip through the canonical text so both sides compile the
		// graph the daemon actually parses.
		text, err := sdfio.CanonicalString(g)
		if err != nil {
			skipped += len(opts) // unservable graph (e.g. zero edges)
			continue
		}
		gridding := clients[turn%len(clients)]
		grid, gridErr := gridding.Grid(service.GridRequest{Graph: text, Entries: opts})
		replies := make([]reply, len(opts))
		for k, o := range opts {
			serving := clients[turn%len(clients)]
			turn++
			resp, ok, skip, err := compareOnce(serving, text, o, &replies[k])
			switch {
			case err != nil:
				divergences++
				fmt.Fprintf(os.Stderr, "sdffuzz: DIVERGENCE [%s+%s] on %s via %s: %v\n",
					o.Strategy, o.Looping, g.Name, serving.BaseURL, err)
				continue
			case skip:
				skipped++
				continue
			case ok:
				compared++
			}
			if len(clients) > 1 {
				// Cross-fetch: a different peer must serve the same digest as
				// the same bytes, whether from its own cache, a peer fetch, or
				// a recompile — content addressing admits exactly one answer.
				other := clients[turn%len(clients)]
				got, err := other.Artifact(resp.Digest)
				if err != nil {
					divergences++
					fmt.Fprintf(os.Stderr, "sdffuzz: DIVERGENCE cross-fetching %s from %s: %v\n",
						resp.Digest, other.BaseURL, err)
					continue
				}
				if string(got) != string(resp.Artifact) {
					divergences++
					fmt.Fprintf(os.Stderr, "sdffuzz: DIVERGENCE %s: peer %s returned different bytes than %s\n",
						resp.Digest, other.BaseURL, serving.BaseURL)
					continue
				}
				crossFetched++
			}
		}
		agreed, bad := checkGrid(gridding.BaseURL, g.Name, opts, grid, gridErr, replies)
		gridChecked += agreed
		divergences += bad
	}
	fmt.Printf("sdffuzz: %d grid entries agree with /v1/compile\n", gridChecked)
	if len(clients) > 1 {
		fmt.Printf("sdffuzz: %d comparisons identical (%d cross-fetched), %d overflow skips, %d divergences\n",
			compared, crossFetched, skipped, divergences)
	} else {
		fmt.Printf("sdffuzz: %d comparisons identical, %d overflow skips, %d divergences\n",
			compared, skipped, divergences)
	}
	return divergences
}

// corpusGraphs loads every .sdf reproducer in the crasher directory, sorted
// by name for a deterministic replay order.
func corpusGraphs(dir string) []*sdf.Graph {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".sdf") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var graphs []*sdf.Graph
	for _, name := range names {
		fh, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdffuzz: %v\n", err)
			continue
		}
		g, err := sdfio.Parse(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdffuzz: %s: %v\n", name, err)
			continue
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// wireConfigs translates the oracle grid into wire options via the canonical
// spelling functions, so the replay sweeps exactly the configurations the
// offline fuzzer does.
func wireConfigs(configs []check.PipelineConfig) []service.CompileOptions {
	var out []service.CompileOptions
	for _, cfg := range configs {
		strat, err := service.StrategyName(cfg.Strategy)
		if err != nil {
			continue // custom orders are library-only
		}
		looping, err := service.LoopingName(cfg.Looping)
		if err != nil {
			continue
		}
		var allocators []string
		for _, a := range cfg.Allocators {
			name, err := service.AllocatorName(a)
			if err != nil {
				continue
			}
			allocators = append(allocators, name)
		}
		out = append(out, service.CompileOptions{
			Strategy: strat, Looping: looping, Allocators: allocators,
			Partitions: cfg.Partitions,
		})
	}
	return out
}

// reply is one /v1/compile answer: the response, or the daemon's error.
type reply struct {
	resp *service.CompileResponse
	err  error
}

// compareOnce compiles the canonical graph text under o both in-process and
// via the daemon and compares outcomes, recording the daemon's answer in
// got. ok reports a byte-identical success pair (resp carries the daemon's
// artifact for follow-up cross-fetches), skip an agreed-on failure
// (overflow on extreme random rates shows up on both sides); err is a
// divergence: exactly one side failed, or bytes differ.
func compareOnce(client *service.Client, text string, o service.CompileOptions, got *reply) (resp *service.CompileResponse, ok, skip bool, err error) {
	local, err := sdfio.Parse(strings.NewReader(text))
	if err != nil {
		return nil, false, false, fmt.Errorf("canonical text does not re-parse: %w", err)
	}
	want, _, localErr := service.CompileArtifact(local, o)
	resp, remoteErr := client.Compile(service.CompileRequest{Graph: text, Options: o}, false)
	*got = reply{resp: resp, err: remoteErr}
	switch {
	case localErr != nil && remoteErr != nil:
		return nil, false, true, nil
	case localErr != nil:
		return nil, false, false, fmt.Errorf("daemon succeeded where local pipeline failed: %v", localErr)
	case remoteErr != nil:
		return nil, false, false, fmt.Errorf("daemon failed where local pipeline succeeded: %v", remoteErr)
	case string(want) != string(resp.Artifact):
		return nil, false, false, fmt.Errorf("artifact bytes differ (digest %s)", resp.Digest)
	}
	return resp, true, false, nil
}

// checkGrid checks each entry of one graph's /v1/grid answer (resp, err)
// against that configuration's /v1/compile reply: the same digest and bytes,
// or the same structured error. Entries with no reply (the daemon was never
// asked) are not compared. It returns the agreeing and the diverging entry
// counts; a failed grid request diverges on every entry.
func checkGrid(addr, name string, opts []service.CompileOptions, resp *service.GridResponse, err error, replies []reply) (agreed, bad int) {
	if err == nil && len(resp.Results) != len(opts) {
		err = fmt.Errorf("%d results for %d entries", len(resp.Results), len(opts))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdffuzz: DIVERGENCE grid on %s via %s: %v\n", name, addr, err)
		return 0, len(opts)
	}
	for k, o := range opts {
		if replies[k].resp == nil && replies[k].err == nil {
			continue
		}
		why := gridMismatch(resp.Results[k], replies[k])
		if why == "" {
			agreed++
			continue
		}
		bad++
		fmt.Fprintf(os.Stderr, "sdffuzz: DIVERGENCE grid entry %d [%s+%s p=%d] on %s via %s: %s\n",
			k, o.Strategy, o.Looping, o.Partitions, name, addr, why)
	}
	return agreed, bad
}

// gridMismatch describes how a grid entry differs from the /v1/compile
// reply for the same configuration, or returns "" when they agree.
func gridMismatch(got service.GridEntryResult, want reply) string {
	if want.err != nil {
		var apiErr *service.APIError
		switch {
		case !errors.As(want.err, &apiErr):
			return fmt.Sprintf("/v1/compile failed without a structured error: %v", want.err)
		case got.Error == nil:
			return fmt.Sprintf("grid succeeded where /v1/compile failed: %v", want.err)
		case *got.Error != *apiErr:
			return fmt.Sprintf("grid error %v, /v1/compile error %v", got.Error, apiErr)
		}
		return ""
	}
	switch {
	case got.Error != nil:
		return fmt.Sprintf("grid failed where /v1/compile succeeded: %v", got.Error)
	case got.Digest != want.resp.Digest:
		return fmt.Sprintf("grid digest %s, /v1/compile digest %s", got.Digest, want.resp.Digest)
	case string(got.Artifact) != string(want.resp.Artifact):
		return fmt.Sprintf("artifact bytes differ (digest %s)", got.Digest)
	}
	return ""
}

// newReplayFuzzer builds the fuzzer state daemonReplay needs without the
// crash-reporting machinery.
func newReplayFuzzer(seed int64, maxActors int, crashDir string) *fuzzer {
	return &fuzzer{
		rng:       rand.New(rand.NewSource(seed)),
		maxActors: maxActors,
		crashDir:  crashDir,
		configs:   check.PipelineConfigs(),
		seen:      make(map[string]bool),
	}
}
