package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/systems"
)

func gridEntries() []CompileOptions {
	var entries []CompileOptions
	for _, strat := range []string{"apgan", "rpmc"} {
		for _, la := range []string{"sdppo", "dppo", "chain", "flat"} {
			entries = append(entries, CompileOptions{Strategy: strat, Looping: la})
		}
	}
	return entries
}

func TestGridEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})
	graph := graphText(t, systems.SatelliteReceiver())
	entries := gridEntries()
	resp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(entries) {
		t.Fatalf("%d results for %d entries", len(resp.Results), len(entries))
	}
	if resp.PlannedNodes <= 0 || resp.PlannedNodes >= resp.NaiveNodes {
		t.Errorf("expected prefix sharing: planned %d, naive %d", resp.PlannedNodes, resp.NaiveNodes)
	}

	// Every entry's artifact must be byte-identical to a direct /v1/compile
	// of that entry — same digest, same bytes, and the grid run must have
	// warmed the single-compile cache.
	for i, res := range resp.Results {
		if res.Error != nil {
			t.Fatalf("entry %d failed: %v", i, res.Error)
		}
		single, err := ts.cl.Compile(CompileRequest{Graph: graph, Options: entries[i]}, false)
		if err != nil {
			t.Fatalf("entry %d direct compile: %v", i, err)
		}
		if single.Digest != res.Digest {
			t.Errorf("entry %d: grid digest %s != compile digest %s", i, res.Digest, single.Digest)
		}
		if !single.Cached {
			t.Errorf("entry %d: grid did not warm the compile cache", i)
		}
		if !bytes.Equal(single.Artifact, res.Artifact) {
			t.Errorf("entry %d: grid artifact differs from direct compile", i)
		}
	}

	// Grid metrics: one planned run, node savings recorded.
	if got := ts.metricValue(t, "sdfd_grid_runs_total"); got != "1" {
		t.Errorf("sdfd_grid_runs_total = %q, want 1", got)
	}
	if got := ts.metricValue(t, "sdfd_grid_shared_nodes_total"); got == "" || got == "0" {
		t.Errorf("sdfd_grid_shared_nodes_total = %q, want > 0", got)
	}
	if got := ts.metricValue(t, `sdfd_grid_pass_nodes_total{kind="repetitions"}`); got != "1" {
		t.Errorf("repetitions pass nodes = %q, want 1", got)
	}
}

func TestGridCacheHitsAndDuplicates(t *testing.T) {
	ts := newTestServer(t, Config{})
	graph := graphText(t, systems.CDDAT())
	warm := CompileOptions{Strategy: "apgan"}
	if _, err := ts.cl.Compile(CompileRequest{Graph: graph, Options: warm}, false); err != nil {
		t.Fatal(err)
	}
	// Entry 0 is cached; entries 1 and 2 are duplicates of each other and
	// must share one compilation and identical bytes.
	resp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: []CompileOptions{
		warm,
		{Strategy: "rpmc", Looping: "dppo"},
		{Strategy: "rpmc", Looping: "dppo"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Results[0].Cached {
		t.Error("warmed entry not served from cache")
	}
	if resp.Results[1].Cached || resp.Results[2].Cached {
		t.Error("cold entries reported cached")
	}
	if resp.Results[1].Digest != resp.Results[2].Digest ||
		!bytes.Equal(resp.Results[1].Artifact, resp.Results[2].Artifact) {
		t.Error("duplicate entries disagree")
	}
	// One distinct missed point: the assemble stats see exactly one node.
	if resp.PlannedNodes == 0 || resp.NaiveNodes == 0 {
		t.Errorf("stats missing: planned %d naive %d", resp.PlannedNodes, resp.NaiveNodes)
	}
}

func TestGridPerEntryErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	graph := graphText(t, systems.CDDAT())
	resp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: []CompileOptions{
		{Allocators: []string{"nope"}}, // bad options: per-entry 400
		{Strategy: "apgan"},            // fine
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error == nil || resp.Results[0].Error.Reason != "bad_request" {
		t.Errorf("bad entry error = %+v, want bad_request", resp.Results[0].Error)
	}
	if resp.Results[1].Error != nil || len(resp.Results[1].Artifact) == 0 {
		t.Errorf("healthy entry poisoned: %+v", resp.Results[1])
	}
}

func TestGridRequestLevelErrors(t *testing.T) {
	ts := newTestServer(t, Config{GridMaxEntries: 2})
	graph := graphText(t, systems.CDDAT())

	_, err := ts.cl.Grid(GridRequest{Graph: graph})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("empty entries: %v, want 400", err)
	}

	_, err = ts.cl.Grid(GridRequest{Graph: graph, Entries: make([]CompileOptions, 3)})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest ||
		!strings.Contains(apiErr.Message, "limit is 2") {
		t.Errorf("too many entries: %v, want 400 with limit message", err)
	}

	_, err = ts.cl.Grid(GridRequest{Graph: "not an sdf graph", Entries: []CompileOptions{{}}})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("bad graph: %v, want 400", err)
	}
}

func TestGridCompileFailureIsPerEntry(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Inconsistent graph: compiles fail, but the grid request itself is 200
	// with a structured error on each entry.
	graph := "graph bad\nactor A\nactor B\nedge A B 2 3 0\nedge A B 1 1 0\n"
	resp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: gridEntries()[:2]})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Error == nil || res.Error.Reason != "compile_failed" {
			t.Errorf("entry %d: %+v, want compile_failed", i, res.Error)
		}
	}
}

func TestGridArtifactRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{})
	graph := graphText(t, systems.CDDAT())
	resp, err := ts.cl.Grid(GridRequest{Graph: graph, Entries: []CompileOptions{
		{Strategy: "apgan", Looping: "flat", EmitC: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results[0]
	if res.Error != nil {
		t.Fatal(res.Error)
	}
	var art Artifact
	if err := json.Unmarshal(res.Artifact, &art); err != nil {
		t.Fatal(err)
	}
	if art.Graph != "cddat" || art.Schedule == "" || art.C == "" {
		t.Errorf("artifact incomplete: %+v", art.Metrics)
	}
	// The digest is fetchable via the shared artifact endpoint.
	fetched, err := ts.cl.Artifact(res.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetched, res.Artifact) {
		t.Error("GET /v1/artifact bytes differ from grid response")
	}
}

// TestGridAndJobSurvivePipelinePanic: a panic inside a pipeline run,
// injected through the compile-start hook, fails only the work it hit —
// with a compile_failed "pipeline panic" error on every affected entry —
// instead of taking the daemon down, and the server keeps compiling.
func TestGridAndJobSurvivePipelinePanic(t *testing.T) {
	ts := newTestServer(t, Config{})
	var panicking atomic.Bool
	panicking.Store(true)
	ts.srv.testHookCompileStart = func() {
		if panicking.Load() {
			panic("injected pass failure")
		}
	}
	text := graphText(t, systems.CDDAT())
	entries := []CompileOptions{{}, {Strategy: "apgan"}, {}}
	isPanic := func(e *APIError) bool {
		return e != nil && e.Reason == "compile_failed" && strings.Contains(e.Message, "pipeline panic")
	}

	grid, err := ts.cl.Grid(GridRequest{Graph: text, Entries: entries})
	if err != nil {
		t.Fatalf("grid with a panicking pipeline: %v, want 200", err)
	}
	for i, res := range grid.Results {
		if !isPanic(res.Error) {
			t.Errorf("grid entry %d: %+v, want compile_failed pipeline panic", i, res.Error)
		}
	}

	job, err := ts.cl.SubmitGridJob(GridRequest{Graph: text, Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := ts.cl.AwaitJob(job.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != JobStateDone || fin.Completed != len(entries) || fin.Failed != len(entries) {
		t.Fatalf("job %+v, want done with every entry failed", fin)
	}
	for _, res := range fin.Results {
		if !isPanic(res.Error) {
			t.Errorf("job entry %d: %+v, want compile_failed pipeline panic", res.Index, res.Error)
		}
	}

	_, err = ts.cl.Compile(CompileRequest{Graph: text}, false)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || !isPanic(apiErr) {
		t.Errorf("compile with a panicking pipeline: %v, want 422 pipeline panic", err)
	}

	panicking.Store(false)
	if _, err := ts.cl.Compile(CompileRequest{Graph: text}, false); err != nil {
		t.Fatalf("compile after the panics: %v", err)
	}
}
