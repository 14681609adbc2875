package scenario

import (
	"strings"
	"testing"
)

// TestParseValid parses well-formed programs and asserts the canonical
// Format output, which pins both the accepted surface syntax (suffixes,
// underscores, trailing commas, comments, arbitrary whitespace) and the
// normalizer in one table.
func TestParseValid(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // canonical Format output
	}{
		{"minimal", "emit take(seq(), n=10)", "emit take(seq(), n=10)\n"},
		{"seed and let",
			"seed 42\nlet hot = zipf(n=4096)\nemit take(hot, n=100)",
			"seed 42\nlet hot = zipf(n=4096)\nemit take(hot, n=100)\n"},
		{"suffixes fold",
			"emit take(seq(), n=1M)",
			"emit take(seq(), n=1000000)\n"},
		{"underscores fold",
			"emit take(seq(), n=1_000_000)",
			"emit take(seq(), n=1000000)\n"},
		{"fractional suffix",
			"emit take(seq(), n=1.5k)",
			"emit take(seq(), n=1500)\n"},
		{"float stays float",
			"emit take(blocks(cycle(n=4), B=8, run=2.5), n=10)",
			"emit take(blocks(cycle(n=4), B=8, run=2.5), n=10)\n"},
		{"weighted args",
			"emit take(mix(0.8: zipf(n=10), 0.2: seq()), n=10)",
			"emit take(mix(0.8: zipf(n=10), 0.2: seq()), n=10)\n"},
		{"trailing comma",
			"emit take(seq(), n=10,)",
			"emit take(seq(), n=10)\n"},
		{"comments and whitespace",
			"# a scenario\nseed 7 # inline\n\n\temit   take( seq( ) ,\n\t n=10 )\n# trailing",
			"seed 7\nemit take(seq(), n=10)\n"},
		{"nested calls",
			"emit take(drift(loop(take(cycle(n=4), n=8)), every=100, step=4), n=50)",
			"emit take(drift(loop(take(cycle(n=4), n=8)), every=100, step=4), n=50)\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Parse("test.gcs", c.src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", c.src, err)
			}
			if got := Format(p); got != c.want {
				t.Errorf("Format mismatch:\n got: %q\nwant: %q", got, c.want)
			}
		})
	}
}

// TestParseErrors exercises every parse-time error production (lexer
// and parser) and asserts both the message and the exact 1-based
// line:col position — the coordinates are part of the UX contract the
// manual's error catalog documents.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantPos string // "line:col"
		wantMsg string // substring
	}{
		{"empty", "", "1:1", "empty scenario"},
		{"comment only", "# nothing here\n", "1:1", "empty scenario"},
		{"bad char", "let x = $", "1:9", `unexpected character "$"`},
		{"bad number trailing ident", "seed 123x", "1:6", `malformed number "123x"`},
		{"bad suffix", "emit take(seq(), n=1kx)", "1:20", `malformed number "1kx"`},
		{"dot needs digits", "emit take(seq(), n=1.)", "1:20", "digits must follow '.'"},
		{"double dot", "emit take(seq(), n=1.2.3)", "1:20", `malformed number "1.2.3"`},
		{"number out of range",
			"seed " + strings.Repeat("9", 400), "1:6", "out of range"},
		{"zipf skew in exponent form", "emit take(zipf(n=4, s=1e400), n=5)", "1:23", `malformed number "1e400"`},
		{"stray statement", "foo", "1:1", "expected a statement (seed, let, or emit)"},
		{"stray punctuation", ", emit x", "1:1", "expected a statement (seed, let, or emit), got ','"},
		{"let needs name", "let = seq()", "1:5", "expected identifier after let"},
		{"let needs assign", "let x seq()", "1:7", "expected '=' after the binding name"},
		{"let keyword name", "let emit = seq()", "1:5", `cannot bind the keyword "emit"`},
		{"seed needs number", "seed x", "1:6", "expected number after seed"},
		{"seed not integer", "seed 1.5", "1:6", "seed must be an integer"},
		{"emit needs expr", "emit", "1:5", "expected an expression"},
		{"emit keyword expr", "emit let", "1:6", `expected an expression, got the keyword "let"`},
		{"unclosed call", "emit take(seq(), n=4", "1:21", "expected ')' to close the argument list"},
		{"extra paren", "emit take(seq(), n=4))", "1:22", "expected a statement (seed, let, or emit), got ')'"},
		{"weight needs expr", "let a = mix(0.5:)", "1:17", "expected an expression"},
		{"arg needs value", "emit take(seq(), n=)", "1:20", "expected an expression"},
		{"bad arg", "emit take(=, n=4)", "1:11", "expected an argument"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("test.gcs", c.src)
			assertScenarioError(t, err, c.wantPos, c.wantMsg)
		})
	}
}

// TestCheckErrors exercises every validation error production with
// position assertions.
func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantPos string
		wantMsg string
	}{
		{"unknown combinator", "emit foo(n=1)", "1:6", `unknown combinator "foo"`},
		{"number as stream", "emit 5", "1:6", "a number is not a stream"},
		{"undefined name", "emit take(bar, n=5)", "1:11", `undefined name "bar"`},
		{"use before definition",
			"emit take(late, n=5)\nlet late = seq()", "1:11", `undefined name "late"`},
		{"combinator as ref", "emit take(zipf, n=5)", "1:11",
			`combinator "zipf" needs an argument list: zipf(n, s=1.2, base=0)`},
		{"unknown parameter", "emit take(seq(), m=5)", "1:18", `unknown parameter "m" of take`},
		{"duplicate parameter", "emit take(seq(), n=5, n=6)", "1:23", `duplicate parameter "n"`},
		{"parameter wants number", "emit take(seq(), n=seq())", "1:20", `parameter "n" of take expects a number`},
		{"parameter wants integer", "emit take(seq(), n=1.5)", "1:20", "must be an integer"},
		{"parameter below minimum", "emit take(cycle(n=0), n=5)", "1:19",
			"parameter n=0 of cycle is below the minimum 1"},
		{"parameter above maximum", "emit take(spread(seq(), gap=2000000), n=5)", "1:29",
			"is above the maximum 1048576"},
		{"zipf skew not a number", "emit take(zipf(n=4, s=NaN), n=5)", "1:23", `parameter "s" of zipf expects a number`},
		{"missing required parameter", "emit take(cycle(), n=5)", "1:11",
			`missing required parameter "n" of cycle`},
		{"weighted on plain combinator", "emit take(0.5: seq(), n=4)", "1:11",
			"take does not take weighted operands"},
		{"unweighted on mix", "emit take(mix(seq(), cycle(n=4)), n=5)", "1:15",
			"mix operands need weights (signature: mix(w1: s1, w2: s2, …))"},
		{"mix weight zero", "emit take(mix(0: seq(), 1: cycle(n=4)), n=5)", "1:15",
			"mix weights must be > 0, got 0"},
		{"interleave fractional count",
			"emit take(interleave(0.5: seq(), 1: cycle(n=4)), n=5)", "1:22",
			"interleave counts must be integers ≥ 1, got 0.5"},
		{"generator with operand", "emit take(seq(cycle(n=2)), n=5)", "1:11",
			"seq takes no stream operands"},
		{"one operand wanted", "emit take(drift(seq(), cycle(n=2), every=1, step=1), n=5)", "1:11",
			"drift takes exactly one stream operand, got 2"},
		{"two operands wanted", "emit take(ramp(seq(), over=5), n=5)", "1:11",
			"ramp takes exactly two stream operands, got 1"},
		{"at least two wanted", "emit take(mix(1: seq()), n=5)", "1:11",
			"mix takes at least two stream operands, got 1"},
		{"mix needs infinite", "emit take(mix(0.5: take(seq(), n=3), 0.5: seq()), n=5)", "1:15",
			"mix requires infinite stream operands — wrap finite streams in loop(…)"},
		{"loop needs finite", "emit take(loop(seq()), n=5)", "1:16",
			"loop requires a finite operand"},
		{"concat infinite not last",
			"emit take(concat(seq(), take(seq(), n=2)), n=5)", "1:18",
			"only the last operand of concat may be infinite"},
		{"emit infinite", "emit seq()", "1:1",
			"emitted stream must be finite — wrap it in take(…, n)"},
		{"missing emit", "let a = seq()", "1:1", "missing emit statement"},
		{"let after emit", "emit take(seq(), n=1)\nlet a = seq()", "2:1",
			"emit must be the last statement (emit at 1:1)"},
		{"seed after emit", "emit take(seq(), n=1)\nseed 3", "2:1",
			"emit must be the last statement"},
		{"multiple emits", "emit take(seq(), n=1)\nemit take(seq(), n=2)", "2:1",
			"multiple emit statements (first at 1:1)"},
		{"duplicate seed", "seed 1\nseed 2\nemit take(seq(), n=1)", "2:1",
			"duplicate seed statement (first at 1:1)"},
		{"duplicate binding", "let a = seq()\nlet a = seq()\nemit take(a, n=1)", "2:1",
			`duplicate binding "a"`},
		{"binding shadows combinator", "let zipf = seq()\nemit take(zipf, n=1)", "1:1",
			`binding "zipf" shadows the combinator`},
		{"unused binding", "let a = seq()\nemit take(seq(), n=1)", "1:1",
			`unused binding "a"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Parse("test.gcs", c.src)
			if err != nil {
				t.Fatalf("Parse failed before validation: %v", err)
			}
			_, err = Check(p)
			assertScenarioError(t, err, c.wantPos, c.wantMsg)
		})
	}
}

// TestCheckLengths asserts the static length computation across the
// finiteness rules.
func TestCheckLengths(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"emit take(seq(), n=100)", 100},
		{"emit concat(take(seq(), n=5), take(cycle(n=3), n=7))", 12},
		{"emit take(concat(take(seq(), n=3), seq()), n=10)", 10},
		{"emit take(take(seq(), n=3), n=10)", 3},
		{"emit take(loop(take(cycle(n=4), n=5)), n=12)", 12},
		{"emit drift(take(seq(), n=9), every=2, step=1)", 9},
		{"emit scatter(offset(spread(take(seq(), n=4), gap=8), by=3), n=100)", 4},
	}
	for _, c := range cases {
		p, err := Parse("test.gcs", c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		info, err := Check(p)
		if err != nil {
			t.Fatalf("Check(%q): %v", c.src, err)
		}
		if info.Length != c.want {
			t.Errorf("%q: static length %d, want %d", c.src, info.Length, c.want)
		}
	}
}

// TestSeedResolution pins the CLI-vs-program seed precedence.
func TestSeedResolution(t *testing.T) {
	seeded := &Info{Seed: 99, HasSeed: true}
	unseeded := &Info{}
	if got := ResolveSeed(seeded, 7, true); got != 7 {
		t.Errorf("explicit flag should win: got %d", got)
	}
	if got := ResolveSeed(seeded, 1, false); got != 99 {
		t.Errorf("program seed should win over flag default: got %d", got)
	}
	if got := ResolveSeed(unseeded, 1, false); got != 1 {
		t.Errorf("flag default applies when unseeded: got %d", got)
	}
}

func assertScenarioError(t *testing.T, err error, wantPos, wantMsg string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected error containing %q, got nil", wantMsg)
	}
	se, ok := err.(*Error)
	if !ok {
		t.Fatalf("error is %T, want *scenario.Error: %v", err, err)
	}
	if got := se.Pos.String(); got != wantPos {
		t.Errorf("error position %s, want %s (error: %v)", got, wantPos, err)
	}
	if !strings.Contains(se.Msg, wantMsg) {
		t.Errorf("error %q does not contain %q", se.Msg, wantMsg)
	}
	if !strings.HasPrefix(err.Error(), "test.gcs:") {
		t.Errorf("rendered error %q does not lead with the file name", err.Error())
	}
}
