package scenario

import (
	"bytes"
	"context"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/policy"
	"gccache/internal/trace"
)

// allCombinators is a program exercising every combinator in the
// registry — the determinism, reset, and zero-allocation tests run it
// so no node kind escapes coverage. A registry-completeness assertion
// below keeps it honest when combinators are added.
const allCombinators = `
seed 11
let hot = zipf(n=256, s=1.3)
let cold = uniform(n=65536, base=256)
let scans = loop(take(seq(start=0, step=1), n=512))
emit take(
  concat(
    take(diurnal(hot, cold, period=200), n=300),
    take(ramp(hot, cold, over=250), n=300),
    take(
      interleave(
        3: mix(0.7: hot, 0.3: cold),
        1: splice(hot, scans, every=40, n=16),
      ),
      n=300,
    ),
    take(drift(blocks(cycle(n=64, start=8), B=8, run=3.5), every=50, step=8), n=300),
    scatter(offset(spread(take(stride(n=32, step=7), n=300), gap=4), by=5), n=8192),
  ),
  n=1500,
)
`

// TestAllCombinatorsCovered fails when a registry combinator is missing
// from the allCombinators test program, so new combinators cannot dodge
// the determinism/reset/alloc tests.
func TestAllCombinatorsCovered(t *testing.T) {
	p, _, err := parseAndCheck(t, allCombinators)
	_ = err
	used := make(map[string]bool)
	var walk func(e Expr)
	walk = func(e Expr) {
		if call, ok := e.(*Call); ok {
			used[call.Name] = true
			for _, a := range call.Args {
				walk(a.Value)
			}
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
	for _, name := range Combinators() {
		if !used[name] {
			t.Errorf("combinator %q is not exercised by the allCombinators test program", name)
		}
	}
}

func parseAndCheck(t *testing.T, src string) (*Program, *Info, error) {
	t.Helper()
	p, err := Parse("test.gcs", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	info, err := Check(p)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return p, info, nil
}

func drain(t *testing.T, s *Stream) []model.Item {
	t.Helper()
	out := make([]model.Item, 0, s.Len())
	for s.Next() {
		out = append(out, s.Item())
	}
	return out
}

// TestCompileDeterministic: same program + same seed → identical
// sequence; different seed → different sequence (for any program with a
// stochastic node).
func TestCompileDeterministic(t *testing.T) {
	p, info, _ := parseAndCheck(t, allCombinators)
	s1, err := Compile(p, 7)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s2, err := Compile(p, 7)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	a, b := drain(t, s1), drain(t, s2)
	if int64(len(a)) != info.Length {
		t.Fatalf("emitted %d requests, static length %d", len(a), info.Length)
	}
	if !itemsEqual(a, b) {
		t.Fatal("same seed produced different sequences")
	}
	s3, err := Compile(p, 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if itemsEqual(a, drain(t, s3)) {
		t.Fatal("different seeds produced identical sequences")
	}
}

// TestStreamReset: Reset rewinds to a byte-identical replay, including
// Emitted bookkeeping.
func TestStreamReset(t *testing.T) {
	p, _, _ := parseAndCheck(t, allCombinators)
	s, err := Compile(p, 3)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	first := drain(t, s)
	if s.Emitted() != int64(len(first)) {
		t.Fatalf("Emitted %d after drain of %d", s.Emitted(), len(first))
	}
	s.Reset()
	if s.Emitted() != 0 {
		t.Fatalf("Emitted %d after Reset", s.Emitted())
	}
	if !itemsEqual(first, drain(t, s)) {
		t.Fatal("Reset replay differs from first pass")
	}
}

// TestFormatRoundTripCompiles: the canonical printer's output is itself
// a valid program that compiles to the identical sequence.
func TestFormatRoundTripCompiles(t *testing.T) {
	p, _, _ := parseAndCheck(t, allCombinators)
	p2, err := Parse("roundtrip.gcs", Format(p))
	if err != nil {
		t.Fatalf("reparse of Format output: %v", err)
	}
	s1, err := Compile(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Compile(p2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !itemsEqual(drain(t, s1), drain(t, s2)) {
		t.Fatal("Format round-trip changed the compiled sequence")
	}
}

// TestTraceMatchesStream: the materializer and the streaming path
// deliver the same requests.
func TestTraceMatchesStream(t *testing.T) {
	p, _, _ := parseAndCheck(t, allCombinators)
	tr, err := Trace(p, 7)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	s, err := Compile(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !itemsEqual([]model.Item(tr), drain(t, s)) {
		t.Fatal("Trace materialization differs from streaming replay")
	}
}

// TestDifferentialSliceVsStream replays one compiled scenario through
// the slice-based simulator and the streaming simulator and requires
// identical cache statistics — the end-to-end guarantee that the
// scenario path changes how traces are delivered, not what they say.
func TestDifferentialSliceVsStream(t *testing.T) {
	p, _, _ := parseAndCheck(t, allCombinators)
	tr, err := Trace(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := model.NewFixed(8)
	caches := map[string]func() cachesim.Cache{
		"itemlru":  func() cachesim.Cache { return policy.NewItemLRU(64) },
		"blocklru": func() cachesim.Cache { return policy.NewBlockLRU(8, g) },
	}
	for name, mk := range caches {
		sliceStats, err := cachesim.Replay(context.Background(), mk(), trace.NewSliceSource(tr), cachesim.ReplayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Compile(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		streamStats, err := cachesim.Replay(context.Background(), mk(), s, cachesim.ReplayOptions{})
		if err != nil {
			t.Fatalf("%s: stream replay: %v", name, err)
		}
		if sliceStats != streamStats {
			t.Errorf("%s: slice stats %+v != stream stats %+v", name, sliceStats, streamStats)
		}
	}
}

// TestWriteSourceMatchesWrite: the streaming encoder produces the exact
// bytes of the slice encoder, and the scanner round-trips them.
func TestWriteSourceMatchesWrite(t *testing.T) {
	p, _, _ := parseAndCheck(t, allCombinators)
	tr, err := Trace(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	var viaSlice, viaSource bytes.Buffer
	if err := tr.Write(&viaSlice); err != nil {
		t.Fatal(err)
	}
	s, err := Compile(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSource(&viaSource, s, uint64(s.Len())); err != nil {
		t.Fatalf("WriteSource: %v", err)
	}
	if !bytes.Equal(viaSlice.Bytes(), viaSource.Bytes()) {
		t.Fatal("WriteSource bytes differ from Trace.Write bytes")
	}
	back, err := trace.Read(&viaSource)
	if err != nil {
		t.Fatalf("Read back: %v", err)
	}
	if !itemsEqual([]model.Item(tr), []model.Item(back)) {
		t.Fatal("decoded trace differs from original")
	}
}

// TestWriteSourceLengthMismatch: a wrong declared count is an error,
// not silent corruption.
func TestWriteSourceLengthMismatch(t *testing.T) {
	p, _, _ := parseAndCheck(t, "emit take(seq(), n=10)")
	s, err := Compile(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSource(&bytes.Buffer{}, s, 11); err == nil {
		t.Fatal("expected declared-length mismatch error")
	}
}

// TestStreamZeroAlloc: the emit path of a compiled scenario covering
// every node kind performs zero allocations per request at steady
// state — the property the hotalloctrans analyzer enforces statically
// and this test enforces dynamically.
func TestStreamZeroAlloc(t *testing.T) {
	p, _, _ := parseAndCheck(t, allCombinators)
	s, err := Compile(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	var sink model.Item
	// Warm up past any first-request initialization.
	for i := 0; i < 64 && s.Next(); i++ {
		sink = s.Item()
	}
	allocs := testing.AllocsPerRun(400, func() {
		if s.Next() {
			sink = s.Item()
		}
	})
	_ = sink
	if allocs != 0 {
		t.Errorf("emit path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestUniverse: the bounding pre-pass matches a manual scan of the
// materialized trace.
func TestUniverse(t *testing.T) {
	p, _, _ := parseAndCheck(t, allCombinators)
	m, err := MaxItem(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Trace(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.MaxItem(); m != want {
		t.Errorf("MaxItem() = %d, trace says %d", m, want)
	}
	if m <= 0 {
		t.Errorf("MaxItem() = %d, want > 0", m)
	}
}

// TestScatterBoundsUniverse: scatter(…, n) must keep every emitted item
// inside [0, n) — the property that keeps dense bounded policies viable
// on hashed workloads.
func TestScatterBoundsUniverse(t *testing.T) {
	p, _, _ := parseAndCheck(t, "emit scatter(take(seq(), n=5000), n=1024)")
	s, err := Compile(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[model.Item]bool)
	for s.Next() {
		if s.Item() >= 1024 {
			t.Fatalf("scatter emitted %d outside [0, 1024)", s.Item())
		}
		seen[s.Item()] = true
	}
	// The multiplicative hash is a permutation of Z_n: 5000 sequential
	// inputs over a 1024 universe must cover every residue.
	if len(seen) != 1024 {
		t.Errorf("scatter covered %d of 1024 residues; not a permutation?", len(seen))
	}
}

// TestLetIsDefinitionNotSharedStream: two references to one binding
// must be independent copies — referencing `hot` twice yields the same
// sub-sequence from each, not an interleaving of one shared stream.
func TestLetIsDefinitionNotSharedStream(t *testing.T) {
	src := `
let base = take(cycle(n=16), n=10)
emit concat(base, base)
`
	p, info, _ := parseAndCheck(t, src)
	if info.Length != 20 {
		t.Fatalf("static length %d, want 20", info.Length)
	}
	s, err := Compile(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, s)
	for i := 0; i < 10; i++ {
		if got[i] != got[i+10] {
			t.Fatalf("second copy diverges at %d: %d vs %d — binding shared state", i, got[i], got[i+10])
		}
	}
}

// TestDescribe: the gcscn summary names the right facts.
func TestDescribe(t *testing.T) {
	p, info, _ := parseAndCheck(t, "seed 5\nlet a = zipf(n=64)\nemit take(a, n=100)")
	d := Describe(p, info)
	for _, want := range []string{"1 bindings", "100 requests", "seed 5", "take", "zipf"} {
		if !bytes.Contains([]byte(d), []byte(want)) {
			t.Errorf("Describe %q missing %q", d, want)
		}
	}
}

func itemsEqual(a, b []model.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
