package gccache_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gccache"
	"gccache/internal/cachesim"
	"gccache/internal/cli"
	"gccache/internal/model"
)

// TestCommandSmoke builds and runs every CLI once with representative
// flags, guarding against flag/wiring regressions. Skipped under -short
// (each invocation pays a `go run` compile).
func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test compiles all ten binaries")
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.gct")
	scnTrace := filepath.Join(dir, "s.gct")

	cases := []struct {
		name string
		args []string
		want string // substring expected on stdout
	}{
		{"gcbounds-table1", []string{"run", "./cmd/gcbounds", "-artifact", "table1", "-h", "1024", "-B", "16"}, "Sleator-Tarjan"},
		{"gcbounds-fig3-csv", []string{"run", "./cmd/gcbounds", "-artifact", "figure3", "-points", "10", "-csv"}, "iblp-ub"},
		{"gctrace-gen", []string{"run", "./cmd/gctrace", "-workload", "cyclic:n=64,len=2000", "-B", "8", "-out", traceFile}, "wrote 2000 requests"},
		{"gcsim-file", []string{"run", "./cmd/gcsim", "-k", "128", "-B", "8", "-trace", traceFile, "-policy", "iblp,item-lru"}, "iblp"},
		{"gcopt", []string{"run", "./cmd/gcopt", "-workload", "blockruns:blocks=4,B=4,run=2,len=40", "-k", "8", "-B", "4"}, "exact GC optimum"},
		{"gcadversary", []string{"run", "./cmd/gcadversary", "-construction", "thm2", "-policy", "item-lru", "-k", "128", "-h", "33", "-B", "8", "-phases", "5"}, "ratio"},
		{"gcrepro-quick-table1-only", []string{"run", "./cmd/gcbounds", "-artifact", "table2"}, "Fault-rate"},
		{"gcsim-probe", []string{"run", "./cmd/gcsim", "-k", "128", "-B", "8",
			"-workload", "blockruns:blocks=32,B=8,run=4,len=4000", "-policy", "iblp",
			"-opt=false", "-probe", "counters,reuse"}, "==== probes: iblp("},
		{"gctrace-reuse", []string{"run", "./cmd/gctrace", "-workload", "cyclic:n=64,len=2000",
			"-B", "8", "-reuse"}, "reuse distances, block granularity"},
		{"gcserve-selfcheck", []string{"run", "./cmd/gcserve", "-selfcheck", "-k", "128", "-B", "8",
			"-workload", "blockruns:blocks=32,B=8,run=4,len=4000", "-policy", "iblp"}, "selfcheck ok"},
		{"gcload-selfcheck", []string{"run", "./cmd/gcload", "-selfcheck"}, "gcload: selfcheck ok"},
		{"gcload-cluster-selfcheck", []string{"run", "./cmd/gcload", "-cluster", "-selfcheck"}, "handoff verified"},
		{"gcload-open", []string{"run", "./cmd/gcload", "-k", "128", "-B", "8", "-shards", "2",
			"-streams", "2", "-ops", "20000",
			"-workload", "blockruns:blocks=32,B=8,run=4,len=4000"}, "ops/sec"},
		{"gcload-batch", []string{"run", "./cmd/gcload", "-mode", "batch", "-k", "128", "-B", "8",
			"-shards", "2", "-streams", "2", "-ops", "20000",
			"-workload", "blockruns:blocks=32,B=8,run=4,len=4000"}, "ops/sec"},
		{"gcopt-deadline-anytime", []string{"run", "./cmd/gcopt", "-workload",
			"blockruns:blocks=4,B=4,run=2,len=400", "-k", "8", "-B", "4", "-exact",
			"-deadline", "1ns"}, "incumbent (feasible upper bound)"},
		{"gcscn-check", []string{"run", "./cmd/gcscn", "scenarios/hotcold.gcs"}, "ok"},
		{"gcscn-explain", []string{"run", "./cmd/gcscn", "-explain", "scenarios/drift.gcs"}, "drift("},
		{"gcscn-stats", []string{"run", "./cmd/gcscn", "-stats", "-B", "64", "scenarios/hotcold.gcs"}, "items/block"},
		{"gcscn-compile", []string{"run", "./cmd/gcscn", "-out", scnTrace, "scenarios/hotcold.gcs"}, "wrote"},
		{"gcsim-scenario", []string{"run", "./cmd/gcsim", "-k", "256", "-B", "64",
			"-scenario", "scenarios/hotcold.gcs", "-policy", "item-lru,block-lru"}, "effective seed 17"},
		{"gcload-scenario-open", []string{"run", "./cmd/gcload", "-scenario", "scenarios/hotcold.gcs",
			"-k", "256", "-B", "64", "-shards", "2", "-streams", "2", "-ops", "20000"}, "ops/sec"},
		{"gcload-scenario-batch", []string{"run", "./cmd/gcload", "-scenario", "scenarios/hotcold.gcs",
			"-mode", "batch", "-k", "256", "-B", "64", "-shards", "2", "-ops", "20000"}, "ops/sec"},
		{"gcsim-autotune", []string{"run", "./cmd/gcsim", "-autotune", "-k", "128", "-B", "8",
			"-workload", "blockruns:blocks=32,B=8,run=4,len=20000"}, "controller:"},
		{"gcload-autotune", []string{"run", "./cmd/gcload", "-autotune", "-shards", "1", "-k", "128", "-B", "8",
			"-streams", "2", "-ops", "20000", "-workload", "blockruns:blocks=32,B=8,run=4,len=4000"}, "gcload: autotune:"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command("go", c.args...)
			cmd.Dir = "."
			cmd.Env = os.Environ()
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out)
			}
		})
	}
}

// TestGcloadDurationBoundsRate: -duration ends a -rate run on time, on
// the trace path and on the -scenario path. At these rates a million
// ops would take hours, so each run must stop at its 300 ms box; the
// test reads the elapsed time gcload prints and fails above 2 s, the
// mark of a stream that sleeps out its due time without watching the
// run's context. Skipped under -short (it compiles gcload).
func TestGcloadDurationBoundsRate(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles gcload")
	}
	elapsed := regexp.MustCompile(`gcload: \d+ ops in (\S+): `)
	for name, args := range map[string][]string{
		"trace": {"-rate", "50", "-streams", "1", "-shards", "1", "-ops", "1000000",
			"-duration", "300ms", "-workload", "cyclic:n=64,len=1000"},
		"scenario": {"-scenario", "scenarios/hotcold.gcs", "-rate", "100", "-streams", "2",
			"-shards", "1", "-ops", "1000000", "-duration", "300ms"},
	} {
		args := append([]string{"run", "./cmd/gcload"}, args...)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", args, err, out)
			}
			m := elapsed.FindSubmatch(out)
			if m == nil {
				t.Fatalf("no elapsed time in the output:\n%s", out)
			}
			d, err := time.ParseDuration(string(m[1]))
			if err != nil {
				t.Fatal(err)
			}
			if d > 2*time.Second {
				t.Errorf("a -duration 300ms run took %v:\n%s", d, out)
			}
		})
	}
}

// TestCommandRefusesOutsideUniverse: the CLIs whose tables grow with the
// largest item ID refuse a trace file holding an item at
// cachesim.MaxUniverse, or at 1<<63 or 2⁶⁴−1, whose exclusive bound
// would wrap an int, instead of growing to it. The error names the
// item. Skipped under -short (it compiles three binaries).
func TestCommandRefusesOutsideUniverse(t *testing.T) {
	if testing.Short() {
		t.Skip("refusal test compiles three binaries")
	}
	dir := t.TempDir()
	for _, name := range []string{"gctrace", "gcsim", "gcload"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	for _, it := range []model.Item{cachesim.MaxUniverse, 1 << 63, ^model.Item(0)} {
		path := filepath.Join(dir, fmt.Sprintf("big-%d.gct", it))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := (gccache.Trace{1, it, 2}).Write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("item %d is outside the universe", it)
		for _, args := range [][]string{
			{"gctrace", "-in", path, "-reuse"},
			{"gcsim", "-autotune", "-trace", path},
			{"gcload", "-trace", path, "-shards", "1", "-streams", "1", "-ops", "10"},
		} {
			t.Run(fmt.Sprintf("%s-%d", args[0], it), func(t *testing.T) {
				out, err := exec.Command(filepath.Join(dir, args[0]), args[1:]...).CombinedOutput()
				if err == nil {
					t.Fatalf("%v exited 0, want a refusal:\n%s", args, out)
				}
				if !strings.Contains(string(out), want) {
					t.Fatalf("%v: output missing %q:\n%s", args, want, out)
				}
			})
		}
	}
}

// TestCommandRefusesBadFlags: a cache size or block size below 1, a
// gcload stream count below 1 (on the trace and the -scenario path)
// and an unknown gctrace -format are refused in the uniform format —
// "<name>: <error>" on stderr, exit 1, no panic — and a refused -out
// writes no file. Skipped under -short (it compiles five binaries).
func TestCommandRefusesBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("refusal test compiles five binaries")
	}
	dir := t.TempDir()
	for _, name := range []string{"gcsim", "gcadversary", "gcload", "gcopt", "gctrace"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	traceFile := filepath.Join(dir, "t.gct")
	f, err := os.Create(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := (gccache.Trace{1, 2, 3}).Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	outFile := filepath.Join(dir, "out.txt")
	const spec = "cyclic:n=8,len=40"
	const format = `unknown -format "txt" (want binary or text)`
	for _, c := range []struct {
		name string
		args []string
		want string // stderr, after "<name>: "
	}{
		{"gcsim-k0", []string{"gcsim", "-k", "0"}, "cache size 0 < 1"},
		{"gcsim-B0", []string{"gcsim", "-B", "0"}, "block size 0 < 1"},
		{"gcadversary-k0", []string{"gcadversary", "-k", "0"}, "cache size 0 < 1"},
		{"gcadversary-B0", []string{"gcadversary", "-B", "0"}, "block size 0 < 1"},
		{"gcload-B0", []string{"gcload", "-B", "0"}, "block size 0 < 1"},
		{"gcload-streams0", []string{"gcload", "-streams", "0", "-ops", "100", "-workload", spec}, "-streams 0 < 1"},
		{"gcload-streams0-scenario", []string{"gcload", "-scenario", "scenarios/hotcold.gcs", "-streams", "0", "-ops", "100"}, "-streams 0 < 1"},
		{"gcopt-B0", []string{"gcopt", "-B", "0", "-workload", spec}, "block size 0 < 1"},
		{"gcopt-k0", []string{"gcopt", "-k", "0", "-workload", spec}, "cache size 0 < 1"},
		{"gctrace-B0", []string{"gctrace", "-B", "0", "-workload", spec}, "block size 0 < 1"},
		{"gctrace-format-out", []string{"gctrace", "-workload", spec, "-format", "txt", "-out", outFile}, format},
		{"gctrace-format-in", []string{"gctrace", "-in", traceFile, "-format", "txt"}, format},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(dir, c.args[0]), c.args[1:]...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			if code := cmd.ProcessState.ExitCode(); code != 1 {
				t.Errorf("exit code %d (err %v), want 1", code, err)
			}
			got := stderr.String()
			if strings.Contains(got, "panic:") || strings.Contains(got, "goroutine") {
				t.Errorf("stderr holds a panic:\n%s", got)
			}
			if want := c.args[0] + ": " + c.want + "\n"; got != want {
				t.Errorf("stderr = %q, want %q", got, want)
			}
		})
	}
	if _, err := os.Stat(outFile); !os.IsNotExist(err) {
		t.Errorf("a refused -format wrote %s (stat err %v)", outFile, err)
	}
}

// TestGcsimRefusesUnknownPolicyBeforeReplay: gcsim resolves every
// -policy name before it replays any, so a list that ends in an unknown
// name exits 1 naming it, prints nothing on stdout, and writes no
// checkpoint for the names ahead of it. Skipped under -short (one
// `go run` compile).
func TestGcsimRefusesUnknownPolicyBeforeReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("refusal test pays a go run compile")
	}
	ckpt := filepath.Join(t.TempDir(), "sim.ckpt")
	cmd := exec.Command("go", "run", "./cmd/gcsim", "-policy", "gcm,footprint,bogus", "-opt=false", "-checkpoint", ckpt)
	cmd.Env = os.Environ()
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 1 {
		t.Errorf("exit code %d (err %v), want 1", code, err)
	}
	if want := `gcsim: unknown policy "bogus"`; !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("stderr = %q, want it to start %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing before the refusal", stdout.String())
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("a refused -policy list wrote %s (stat err %v)", ckpt, err)
	}
}

// TestGcsimKillResumeByteIdentical kills a gcsim run mid-way via
// -deadline, resumes it from the checkpoint, and asserts the resumed
// run's stdout is byte-identical to an uninterrupted run — the
// checkpoint contract of the fault-tolerance layer, end to end at the
// CLI level. Skipped under -short (three `go run` invocations).
func TestGcsimKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/resume test pays three go run compiles")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sim.ckpt")
	args := func(extra ...string) []string {
		base := []string{"run", "./cmd/gcsim", "-k", "256", "-B", "8",
			"-workload", "blockruns:blocks=64,B=8,run=8,len=60000", "-opt=false"}
		return append(base, extra...)
	}
	run := func(args []string) (string, error) {
		cmd := exec.Command("go", args...)
		cmd.Dir = "."
		cmd.Env = os.Environ()
		var stdout strings.Builder
		cmd.Stdout = &stdout
		err := cmd.Run()
		return stdout.String(), err
	}
	plain, err := run(args())
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	// A 1ns budget guarantees the deadline fires before the first policy
	// completes, exercising the save-and-exit path deterministically.
	if _, err := run(args("-deadline", "1ns", "-checkpoint", ckpt)); err == nil {
		t.Fatal("deadline run exited 0, want nonzero")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("deadline run left no checkpoint: %v", err)
	}
	resumed, err := run(args("-resume", "-checkpoint", ckpt))
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if resumed != plain {
		t.Errorf("resumed stdout differs from uninterrupted run:\n--- plain ---\n%s\n--- resumed ---\n%s", plain, resumed)
	}
}

// TestGcsimResumeWithoutCheckpointStartsFresh runs gcsim with -resume
// against a checkpoint path that does not exist yet, as a first run of a
// resumable job does: it must start fresh, print the plain run's stdout
// and leave a checkpoint behind. Skipped under -short (two `go run`
// invocations).
func TestGcsimResumeWithoutCheckpointStartsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("first-run resume test pays two go run compiles")
	}
	ckpt := filepath.Join(t.TempDir(), "absent.ckpt")
	base := []string{"run", "./cmd/gcsim", "-workload", "cyclic:n=48,len=2000",
		"-k", "64", "-B", "8", "-policy", "item-lru,iblp", "-opt=false"}
	run := func(extra ...string) string {
		cmd := exec.Command("go", append(base, extra...)...)
		cmd.Env = os.Environ()
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("gcsim %v: %v\n%s", extra, err, stderr.String())
		}
		return stdout.String()
	}
	plain := run()
	if resumed := run("-resume", "-checkpoint", ckpt); resumed != plain {
		t.Errorf("first -resume run's stdout differs from the plain run:\n--- plain ---\n%s\n--- resumed ---\n%s", plain, resumed)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("first -resume run left no checkpoint: %v", err)
	}
}

// TestGcoptResumeWithoutCheckpointStartsFresh is
// TestGcsimResumeWithoutCheckpointStartsFresh for gcopt's exact solve:
// a first -resume run against an absent checkpoint must exit 0, print
// the plain run's stdout (no "resuming" line) and leave a checkpoint
// behind. Skipped under -short (two `go run` invocations).
func TestGcoptResumeWithoutCheckpointStartsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("first-run resume test pays two go run compiles")
	}
	ckpt := filepath.Join(t.TempDir(), "absent.ckpt")
	base := []string{"run", "./cmd/gcopt", "-exact", "-k", "4", "-B", "2",
		"-workload", "cyclic:n=8,len=40"}
	run := func(extra ...string) string {
		cmd := exec.Command("go", append(base, extra...)...)
		cmd.Env = os.Environ()
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("gcopt %v: %v\n%s", extra, err, stderr.String())
		}
		return stdout.String()
	}
	plain := run()
	if !strings.Contains(plain, "exact GC optimum: 14\n") {
		t.Fatalf("plain run did not print the exact optimum 14:\n%s", plain)
	}
	if resumed := run("-resume", "-checkpoint", ckpt); resumed != plain {
		t.Errorf("first -resume run's stdout differs from the plain run:\n--- plain ---\n%s\n--- resumed ---\n%s", plain, resumed)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("first -resume run left no checkpoint: %v", err)
	}
}

// TestGcsimScenarioDeterministic runs gcsim twice on the same scenario
// program with an explicit seed and asserts byte-identical stdout —
// the DSL's headline contract (docs/SCENARIOS.md §3) held end to end
// at the CLI level, not just inside internal/scenario's own tests.
// Skipped under -short (two `go run` invocations).
func TestGcsimScenarioDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism smoke pays two go run compiles")
	}
	args := []string{"run", "./cmd/gcsim", "-k", "1024", "-B", "64",
		"-scenario", "scenarios/drift.gcs", "-seed", "7", "-policy", "item-lru,block-lru,iblp"}
	var outs [2]string
	for i := range outs {
		cmd := exec.Command("go", args...)
		cmd.Dir = "."
		cmd.Env = os.Environ()
		var stdout strings.Builder
		cmd.Stdout = &stdout
		if err := cmd.Run(); err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		outs[i] = stdout.String()
	}
	if outs[0] != outs[1] {
		t.Errorf("two runs of the same scenario+seed differ:\n--- first ---\n%s\n--- second ---\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "effective seed 7") {
		t.Errorf("output does not acknowledge the explicit seed:\n%s", outs[0])
	}
}

// TestCommandUsage runs every CLI with -h and asserts the uniform
// usage banner plus a mention of every registered flag. Catches both
// drift in internal/cli.SetUsage wiring and flags added without help
// text. Skipped under -short for the same compile-cost reason.
func TestCommandUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("usage test compiles all ten binaries")
	}
	cmds := map[string][]string{
		"gcadversary": {"construction", "policy", "k", "h", "B", "phases", "p", "seed"},
		"gcbenchjson": {"out", "write", "floor"},
		"gcbounds":    {"artifact", "k", "h", "B", "size", "points", "csv"},
		"gcopt":       {"workload", "trace", "k", "B", "seed", "exact", "deadline", "checkpoint", "resume"},
		"gcrepro":     {"out", "quick"},
		"gcload": {"k", "B", "policy", "workload", "trace", "scenario", "seed", "shards", "streams",
			"ops", "rate", "mode", "batch", "depth", "duration", "selfcheck", "cluster", "ring"},
		"gcscn": {"fmt", "explain", "stats", "out", "seed", "B"},
		"gcserve": {"addr", "k", "B", "policy", "workload", "trace", "seed",
			"shards", "streams", "probe", "loop", "rate", "duration", "selfcheck", "drain",
			"cluster", "ring", "cluster-addr"},
		"gcsim": {"k", "B", "policy", "workload", "trace", "scenario", "seed", "opt", "probe",
			"deadline", "checkpoint", "resume"},
		"gctrace": {"workload", "out", "in", "B", "seed", "format", "mrc", "reuse"},
	}
	// Every command that takes -policy reads it from core.ByName's table,
	// so each help text lists the table's names, in the same words.
	policyCmds := map[string]bool{"gcadversary": true, "gcload": true, "gcserve": true, "gcsim": true}
	for name, flags := range cmds {
		name, flags := name, flags
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./cmd/"+name, "-h")
			cmd.Dir = "."
			cmd.Env = os.Environ()
			// flag's -h handling may exit 0 or nonzero depending on the
			// command; only the printed usage text matters here.
			out, err := cmd.CombinedOutput()
			if err != nil {
				if _, ok := err.(*exec.ExitError); !ok {
					t.Fatalf("go run ./cmd/%s -h: %v\n%s", name, err, out)
				}
			}
			text := string(out)
			if !strings.Contains(text, "usage: "+name) {
				t.Errorf("missing uniform usage banner %q:\n%s", "usage: "+name, text)
			}
			for _, f := range flags {
				if !strings.Contains(text, "-"+f) {
					t.Errorf("usage output does not mention flag -%s:\n%s", f, text)
				}
			}
			if policyCmds[name] && !strings.Contains(text, cli.PolicyHelp) {
				t.Errorf("-policy help does not list the policy table's names %q:\n%s", cli.PolicyHelp, text)
			}
		})
	}
}

// TestGcsimStdoutGolden pins gcsim's stdout byte for byte on a small
// blockruns workload with every policy and the OPT bracket, and on the
// drift scenario with every policy, against testdata/gcsim-*.golden.
// A change to how gcsim builds policies or loads input must leave both
// unchanged. Skipped under -short (it compiles gcsim).
func TestGcsimStdoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden test compiles gcsim")
	}
	bin := filepath.Join(t.TempDir(), "gcsim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/gcsim").CombinedOutput(); err != nil {
		t.Fatalf("build gcsim: %v\n%s", err, out)
	}
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"gcsim-blockruns-all.golden", []string{"-k", "64", "-B", "8",
			"-workload", "blockruns:blocks=64,B=8,run=4,len=3000", "-policy", "all"}},
		{"gcsim-drift-all.golden", []string{"-scenario", "scenarios/drift.gcs", "-policy", "all"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(bin, c.args...)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("gcsim %v: %v\n%s", c.args, err, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("gcsim %v stdout differs from %s:\n--- got ---\n%s--- want ---\n%s", c.args, c.golden, got, want)
			}
		})
	}
}
