package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/core"
)

// CompileOptions is the wire form of the pipeline configuration accepted by
// POST /v1/compile. Every field participates in the content-addressed cache
// key — see cacheKey below, whose struct-conversion guard makes forgetting
// a new field a compile error rather than a silent cache-poisoning bug.
//
// Zero values select the paper's recommended configuration: RPMC ordering,
// SDPPO looping, first-fit-by-duration + first-fit-by-start allocation.
type CompileOptions struct {
	// Strategy is the lexical ordering heuristic: "rpmc" (default) or
	// "apgan". Custom orders are a library-only feature; the service
	// rejects them.
	Strategy string `json:"strategy,omitempty"`
	// Looping is the loop-hierarchy post-optimization: "sdppo" (default),
	// "dppo", "chain", or "flat".
	Looping string `json:"looping,omitempty"`
	// Allocators lists storage allocators to try ("ffdur", "ffstart",
	// "bfdur"); the smallest feasible result wins. Default: ffdur,ffstart.
	Allocators []string `json:"allocators,omitempty"`
	// Verify runs the token-level shared-memory simulator for
	// VerifyPeriods periods (default 2) during compilation.
	Verify        bool `json:"verify,omitempty"`
	VerifyPeriods int  `json:"verify_periods,omitempty"`
	// Merging applies the Sec. 12 buffer-merging extension.
	Merging bool `json:"merging,omitempty"`
	// EmitC / EmitVHDL include generated code in the artifact.
	EmitC    bool `json:"emit_c,omitempty"`
	EmitVHDL bool `json:"emit_vhdl,omitempty"`
	// Partitions, when >= 2, additionally compiles a P-way phased parallel
	// schedule with a per-segment storage allocation; the artifact gains a
	// partition section (and threaded C when emit_c is set). 0 and 1 both
	// normalize to 0 — the sequential pipeline (a 1-way partitioning is the
	// sequential schedule). Capped at 64 workers.
	Partitions int `json:"partitions,omitempty"`
}

// cacheKey is the serialized form of CompileOptions inside the cache
// digest. Field-list completeness is enforced twice over: sdflint's
// keycomplete analyzer checks the mirror covers every CompileOptions field
// (and names the missing one when it doesn't), and the JSON encoding of
// cacheKey marshals every exported field, so a field present in both
// structs cannot be dropped from the digest. The conversion in
// digestOptions additionally keeps the field order aligned.
//
// On top of that, the enum spellings stored here flow through the
// exhaustive-checked switches below (StrategyName, LoopingName,
// AllocatorName), so adding a pipeline knob *value* without deciding its
// cache-key spelling fails sdflint's exhaustive analyzer.
//
//lint:keymap CompileOptions
type cacheKey struct {
	Strategy      string   // digest JSON, normalized via StrategyName
	Looping       string   // digest JSON, normalized via LoopingName
	Allocators    []string // digest JSON, deduplicated via AllocatorName
	Verify        bool     // digest JSON; changes the artifact (verification report)
	VerifyPeriods int      // digest JSON; 0 unless Verify is set (see normalize)
	Merging       bool     // digest JSON; changes the artifact (merged allocation)
	EmitC         bool     // digest JSON; changes the artifact (embedded C source)
	EmitVHDL      bool     // digest JSON; changes the artifact (embedded VHDL source)
	Partitions    int      // digest JSON; changes the artifact (partition section, threaded C)
}

// digestOptions serializes normalized options for the cache digest.
func digestOptions(o CompileOptions) []byte {
	data, err := json.Marshal(cacheKey(o))
	if err != nil {
		// cacheKey contains only strings, bools, ints and string slices;
		// Marshal cannot fail on it.
		panic(fmt.Sprintf("service: marshal cache key: %v", err))
	}
	return data
}

// SchemaVersion is the artifact schema version: the digest frame prefix and
// the artifact's schema field. v2 added the partition section, the schema
// field itself, and the parallel_total metric.
const SchemaVersion = "sdfd/v2"

// Digest computes the content address of one (canonical graph text,
// normalized options) pair: hex SHA-256 over a versioned frame. Change
// SchemaVersion whenever the artifact schema changes incompatibly so stale
// cache entries (and external stores keyed on the digest) cannot alias.
func Digest(canonicalGraph string, normalized CompileOptions) string {
	h := sha256.New()
	h.Write([]byte(SchemaVersion + "\n"))
	h.Write([]byte(canonicalGraph))
	h.Write([]byte{0})
	h.Write(digestOptions(normalized))
	return hex.EncodeToString(h.Sum(nil))
}

// StrategyName is the canonical wire spelling of an ordering strategy. The
// switch is exhaustive-checked by sdflint: adding a core.OrderStrategy
// constant without deciding its service spelling fails the lint gate.
func StrategyName(s core.OrderStrategy) (string, error) {
	switch s {
	case core.RPMC:
		return "rpmc", nil
	case core.APGAN:
		return "apgan", nil
	case core.CustomOrder:
		return "", fmt.Errorf("service: custom lexical orders are not servable")
	default:
		panic(fmt.Sprintf("service: unknown order strategy %v", s))
	}
}

// LoopingName is the canonical wire spelling of a looping algorithm
// (exhaustive-checked, see StrategyName).
func LoopingName(l core.LoopAlg) (string, error) {
	switch l {
	case core.SDPPOLoops:
		return "sdppo", nil
	case core.DPPOLoops:
		return "dppo", nil
	case core.ChainPreciseLoops:
		return "chain", nil
	case core.FlatLoops:
		return "flat", nil
	default:
		panic(fmt.Sprintf("service: unknown looping algorithm %v", l))
	}
}

// AllocatorName is the canonical wire spelling of an allocation strategy
// (exhaustive-checked, see StrategyName).
func AllocatorName(s alloc.Strategy) (string, error) {
	switch s {
	case alloc.FirstFitDuration:
		return "ffdur", nil
	case alloc.FirstFitStart:
		return "ffstart", nil
	case alloc.BestFitDuration:
		return "bfdur", nil
	default:
		panic(fmt.Sprintf("service: unknown allocator %v", s))
	}
}

func parseStrategy(s string) (core.OrderStrategy, error) {
	switch s {
	case "", "rpmc":
		return core.RPMC, nil
	case "apgan":
		return core.APGAN, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want rpmc or apgan)", s)
	}
}

func parseLooping(s string) (core.LoopAlg, error) {
	switch s {
	case "", "sdppo":
		return core.SDPPOLoops, nil
	case "dppo":
		return core.DPPOLoops, nil
	case "chain":
		return core.ChainPreciseLoops, nil
	case "flat":
		return core.FlatLoops, nil
	default:
		return 0, fmt.Errorf("unknown looping %q (want sdppo, dppo, chain, or flat)", s)
	}
}

func parseAllocator(s string) (alloc.Strategy, error) {
	switch s {
	case "ffdur":
		return alloc.FirstFitDuration, nil
	case "ffstart":
		return alloc.FirstFitStart, nil
	case "bfdur":
		return alloc.BestFitDuration, nil
	default:
		return 0, fmt.Errorf("unknown allocator %q (want ffdur, ffstart, or bfdur)", s)
	}
}

// CoreOptions validates o and returns both its normalized wire form and the
// library configuration it selects. Normalization round-trips every enum
// spelling through its typed constant (so aliases and defaults collapse onto
// one spelling), deduplicates allocators preserving first occurrence (order
// no longer affects results — equal totals are tie-broken by allocator name
// in the core), and makes defaulted numeric fields explicit. Two option sets
// normalize equal iff they configure the identical pipeline, which is what
// makes the digest a true content address. sdfd and sdfc both build their
// core.Options here, so one option set is one configuration in either.
func CoreOptions(o CompileOptions) (CompileOptions, core.Options, error) {
	var opts core.Options
	var err error
	if opts.Strategy, err = parseStrategy(o.Strategy); err != nil {
		return CompileOptions{}, core.Options{}, err
	}
	if o.Strategy, err = StrategyName(opts.Strategy); err != nil {
		return CompileOptions{}, core.Options{}, err
	}
	if opts.Looping, err = parseLooping(o.Looping); err != nil {
		return CompileOptions{}, core.Options{}, err
	}
	if o.Looping, err = LoopingName(opts.Looping); err != nil {
		return CompileOptions{}, core.Options{}, err
	}
	in := o.Allocators
	if len(in) == 0 {
		in = []string{"ffdur", "ffstart"}
	}
	seen := map[alloc.Strategy]bool{}
	canon := make([]string, 0, len(in))
	for _, a := range in {
		strat, err := parseAllocator(a)
		if err != nil {
			return CompileOptions{}, core.Options{}, err
		}
		if seen[strat] {
			continue
		}
		seen[strat] = true
		name, err := AllocatorName(strat)
		if err != nil {
			return CompileOptions{}, core.Options{}, err
		}
		canon = append(canon, name)
		opts.Allocators = append(opts.Allocators, strat)
	}
	o.Allocators = canon
	if o.VerifyPeriods < 0 {
		return CompileOptions{}, core.Options{}, fmt.Errorf("verify_periods must be >= 0, got %d", o.VerifyPeriods)
	}
	if o.Verify && o.VerifyPeriods == 0 {
		o.VerifyPeriods = 2
	}
	if !o.Verify {
		o.VerifyPeriods = 0
	}
	if o.Partitions < 0 || o.Partitions > 64 {
		return CompileOptions{}, core.Options{}, fmt.Errorf("partitions must be in [0, 64], got %d", o.Partitions)
	}
	if o.Partitions == 1 {
		// A 1-way partitioning is the sequential schedule; collapse onto the
		// sequential spelling so both digest identically.
		o.Partitions = 0
	}
	opts.Verify, opts.VerifyPeriods = o.Verify, o.VerifyPeriods
	opts.Merging, opts.Partitions = o.Merging, o.Partitions
	return o, opts, nil
}

// normalize is CoreOptions for callers that need only the wire form.
func normalize(o CompileOptions) (CompileOptions, error) {
	norm, _, err := CoreOptions(o)
	return norm, err
}
