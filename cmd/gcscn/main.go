// Command gcscn is the scenario toolchain: it checks, formats,
// explains, compiles, and profiles scenario DSL programs (see
// docs/SCENARIOS.md) without running a simulation.
//
// Modes, selected by flag; files are positional arguments:
//
//	gcscn scenarios/drift.gcs            # check: parse + validate, print a summary
//	gcscn -fmt scenarios/drift.gcs       # print the canonical formatting
//	gcscn -explain                       # print the full combinator reference
//	gcscn -explain scenarios/drift.gcs   # explain the combinators a program uses
//	gcscn -stats scenarios/drift.gcs     # compile + replay, print trace statistics
//	gcscn -out t.gct scenarios/drift.gcs # compile to a binary trace, O(1) memory
//
// Errors carry file:line:col positions; the exit status is nonzero when
// any input fails, so `gcscn scenarios/*.gcs` works as a corpus gate.
package main

import (
	"flag"
	"fmt"
	"os"

	"gccache/internal/cli"
	"gccache/internal/model"
	"gccache/internal/scenario"
	"gccache/internal/trace"
)

func main() {
	var (
		format  = flag.Bool("fmt", false, "print each program in canonical formatting instead of checking")
		explain = flag.Bool("explain", false, "explain the combinators each program uses (no files: the full reference)")
		stats   = flag.Bool("stats", false, "compile and replay each program, printing trace statistics under -B")
		outFile = flag.String("out", "", "compile exactly one program to this gctrace binary file (streaming)")
		seed    = flag.Int64("seed", 1, "compile seed (a program's own seed statement takes precedence)")
		B       = flag.Int("B", 64, "block size for -stats")
	)
	cli.SetUsage("gcscn", "check, format, explain, or compile scenario DSL files (positional arguments; see docs/SCENARIOS.md)")
	flag.Parse()
	files := flag.Args()

	if *explain && len(files) == 0 {
		printReference(os.Stdout)
		return
	}
	if len(files) == 0 {
		cli.Fatalf("gcscn", "no scenario files given (usage: gcscn [flags] file.gcs...)")
	}
	if *outFile != "" && len(files) != 1 {
		cli.Fatalf("gcscn", "-out compiles exactly one scenario, got %d files", len(files))
	}

	failed := false
	for _, path := range files {
		prog, info, effSeed, err := cli.LoadScenario(path, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
			continue
		}
		switch {
		case *format:
			fmt.Print(scenario.Format(prog))
		case *explain:
			explainProgram(os.Stdout, path, prog, info)
		case *stats:
			if err := printStats(os.Stdout, path, prog, effSeed, *B); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
			}
		case *outFile != "":
			if err := compileTo(*outFile, prog, effSeed); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
				continue
			}
			fmt.Printf("%s: wrote %d requests to %s (seed %d)\n", path, info.Length, *outFile, effSeed)
		default:
			fmt.Printf("%s: ok: %s\n", path, scenario.Describe(prog, info))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// printReference dumps the full combinator reference from the registry —
// the same source of truth the manual's semantics table is tested
// against, so `gcscn -explain` can never contradict docs/SCENARIOS.md.
func printReference(w *os.File) {
	fmt.Fprintln(w, "scenario DSL combinators (see docs/SCENARIOS.md for the full manual):")
	fmt.Fprintln(w)
	for _, name := range scenario.Combinators() {
		fmt.Fprintf(w, "  %s\n      %s\n", scenario.Signature(name), scenario.Doc(name))
	}
}

// explainProgram prints a program's summary and the reference entry of
// every combinator it uses.
func explainProgram(w *os.File, path string, prog *scenario.Program, info *scenario.Info) {
	fmt.Fprintf(w, "%s: %s\n", path, scenario.Describe(prog, info))
	for _, name := range scenario.CombinatorsUsed(prog) {
		fmt.Fprintf(w, "  %s\n      %s\n", scenario.Signature(name), scenario.Doc(name))
	}
}

// printStats compiles and replays the program once, streaming, and
// prints the same locality statistics gctrace reports for trace files.
func printStats(w *os.File, path string, prog *scenario.Program, seed int64, blockSize int) error {
	s, err := scenario.Compile(prog, seed)
	if err != nil {
		return err
	}
	geo := model.NewFixed(blockSize)
	items := make(map[model.Item]struct{})
	blocks := make(map[model.Block]struct{})
	var n, runs int64
	var prev model.Block
	for s.Next() {
		it := s.Item()
		b := geo.BlockOf(it)
		items[it] = struct{}{}
		blocks[b] = struct{}{}
		if n == 0 || b != prev {
			runs++
		}
		prev = b
		n++
	}
	itemsPerBlock, meanRun := 0.0, 0.0
	if len(blocks) > 0 {
		itemsPerBlock = float64(len(items)) / float64(len(blocks))
	}
	if runs > 0 {
		meanRun = float64(n) / float64(runs)
	}
	fmt.Fprintf(w, "%s: seed %d: %d requests, %d items, %d blocks (B=%d), %.2f items/block, mean run %.2f\n",
		path, seed, n, len(items), len(blocks), blockSize, itemsPerBlock, meanRun)
	return nil
}

// compileTo streams the compiled scenario into a gctrace binary file in
// O(1) memory — the static length goes in the header before the first
// request is generated.
func compileTo(path string, prog *scenario.Program, seed int64) error {
	s, err := scenario.Compile(prog, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteSource(f, s, uint64(s.Len())); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
