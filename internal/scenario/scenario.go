// Package scenario implements the workload-scenario DSL: a small
// language whose programs compose streaming request generators — phase
// mixes with weights, diurnal and ramp rate curves, hot-set drift,
// adversary interleavings, seeded splices — and compile to a
// trace.Source, so a million-request scenario replays through the
// cachesim and concurrent engines in O(1) memory without ever
// materializing a slice.
//
// The pipeline is classic and hand-rolled end to end: lexer
// (lexer.go) → recursive-descent parser (parser.go) → typed AST
// (ast.go) → validator (validate.go, driven by the combinator registry
// in registry.go) → compiler (compile.go) emitting a tree of
// allocation-free nodes (nodes.go). Compiled scenarios are
// deterministic under a seed: every stateful node derives its RNG from
// (program seed, instantiation index), and Stream.Reset restores a
// byte-identical replay.
//
// The complete language reference — grammar, combinator semantics,
// error catalog, worked examples — is docs/SCENARIOS.md; the corpus
// under scenarios/ is the executable companion. A docs test diffs the
// manual's semantics table against the registry, so the two cannot
// drift.
//
//gclint:repro
package scenario

import (
	"fmt"
	"os"
	"strings"

	"gccache/internal/trace"
)

// FlagHelp is the shared help text for the -scenario flag, so gcsim,
// gcload, and gcscn document it identically (the cmd usage test pins
// the flag's presence).
const FlagHelp = "compile and stream a scenario DSL file (see docs/SCENARIOS.md); overrides -workload"

// Ext is the conventional scenario file extension.
const Ext = ".gcs"

// Load reads, parses, and validates a scenario file, returning the
// program and its validation info.
func Load(path string) (*Program, *Info, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	p, err := Parse(path, string(src))
	if err != nil {
		return nil, nil, err
	}
	info, err := Check(p)
	if err != nil {
		return nil, nil, err
	}
	return p, info, nil
}

// ResolveSeed picks the effective seed for a compile: an explicitly
// set CLI flag wins, then the program's own `seed` statement, then the
// flag's default. flagSet reports whether the user passed the flag.
func ResolveSeed(info *Info, flagSeed int64, flagSet bool) int64 {
	if flagSet || !info.HasSeed {
		return flagSeed
	}
	return info.Seed
}

// MaxTraceLen caps materialization: Trace refuses scenarios above this
// many requests (streaming replay has no such limit). Matches the
// workload package's spec cap.
const MaxTraceLen = 1 << 26

// Trace materializes a compiled scenario into an in-memory trace — the
// bridge to the slice-based tooling (exact OPT, probes, checkpoints).
// Scenarios longer than MaxTraceLen are refused; stream them instead.
func Trace(p *Program, seed int64) (trace.Trace, error) {
	s, err := Compile(p, seed)
	if err != nil {
		return nil, err
	}
	if s.Len() > MaxTraceLen {
		return nil, fmt.Errorf("scenario: %d requests exceed the %d materialization cap (use the streaming path)",
			s.Len(), MaxTraceLen)
	}
	out := make(trace.Trace, 0, s.Len())
	for s.Next() {
		out = append(out, s.Item())
	}
	return out, nil
}

// Universe replays the scenario once (O(1) memory) and returns an
// exclusive upper bound on its item IDs — the argument
// ReplayOptions.Universe and the autotuner take. Deterministic: the
// probing pass and the replay pass see the same sequence.
func Universe(p *Program, seed int64) (int, error) {
	s, err := Compile(p, seed)
	if err != nil {
		return 0, err
	}
	max := uint64(0)
	seen := false
	for s.Next() {
		if v := uint64(s.Item()); v >= max {
			max = v
			seen = true
		}
	}
	if !seen {
		return 0, nil
	}
	return int(max + 1), nil
}

// CombinatorsUsed returns the sorted set of combinator names appearing
// anywhere in the program — gcscn -explain prints their reference
// entries.
func CombinatorsUsed(p *Program) []string {
	used := make(map[string]bool)
	var walk func(e Expr)
	walk = func(e Expr) {
		call, ok := e.(*Call)
		if !ok {
			return
		}
		used[call.Name] = true
		for _, a := range call.Args {
			walk(a.Value)
		}
	}
	for _, st := range p.Stmts {
		switch st := st.(type) {
		case *LetStmt:
			walk(st.Expr)
		case *EmitStmt:
			walk(st.Expr)
		}
	}
	var names []string
	for _, c := range Combinators() { // registry order: already sorted
		if used[c] {
			names = append(names, c)
		}
	}
	return names
}

// Describe renders a one-paragraph structural summary of a validated
// program: binding count, combinators used, emit length — the default
// output of gcscn.
func Describe(p *Program, info *Info) string {
	lets := 0
	for _, st := range p.Stmts {
		if _, ok := st.(*LetStmt); ok {
			lets++
		}
	}
	seed := "unseeded (CLI -seed applies)"
	if info.HasSeed {
		seed = fmt.Sprintf("seed %d", info.Seed)
	}
	return fmt.Sprintf("%d bindings, %d requests, %s, combinators: %s",
		lets, info.Length, seed, strings.Join(CombinatorsUsed(p), ", "))
}
