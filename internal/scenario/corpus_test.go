package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gccache/internal/cachesim"
)

// TestScenarioCorpus is the corpus gate (run under -race by `make
// scenario-smoke`): every scenarios/*.gcs file must parse, validate,
// carry a documenting header comment, survive a canonical-format round
// trip, and compile + replay to exactly its static length with every
// item inside the universe the bounding pre-pass computed, which must
// not exceed the bound a replay applies when none is declared.
func TestScenarioCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*"+Ext))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 8 {
		t.Fatalf("corpus has %d scenarios, want at least 8", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Corpus files are documentation: they must open with a header
			// comment naming what they stress.
			text := string(raw)
			if !strings.HasPrefix(text, "# "+filepath.Base(path)) {
				t.Errorf("missing '# %s — …' header comment", filepath.Base(path))
			}
			header := 0
			for _, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(line, "#") {
					header++
				}
			}
			if header < 5 {
				t.Errorf("header comment is %d lines; corpus files document the behavior and paper tie-in they stress", header)
			}

			prog, info, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !info.HasSeed {
				t.Error("corpus scenarios carry an explicit seed statement for reproducibility")
			}

			// Canonical formatting must round-trip to the same sequence.
			p2, err := Parse(path, Format(prog))
			if err != nil {
				t.Fatalf("reparse of Format output: %v", err)
			}

			u, err := Universe(prog, info.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if u > cachesim.MaxUniverse {
				t.Errorf("universe %d exceeds cachesim.MaxUniverse %d: a replay with no declared universe refuses its items", u, cachesim.MaxUniverse)
			}
			s, err := Compile(prog, info.Seed)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := Compile(p2, info.Seed)
			if err != nil {
				t.Fatalf("compile of formatted copy: %v", err)
			}
			var n int64
			for s.Next() {
				if !s2.Next() || s2.Item() != s.Item() {
					t.Fatalf("formatted copy diverges at request %d", n)
				}
				if int(s.Item()) >= u {
					t.Fatalf("request %d: item %d outside computed universe %d", n, s.Item(), u)
				}
				n++
			}
			if s2.Next() {
				t.Fatal("formatted copy emits extra requests")
			}
			if n != info.Length {
				t.Errorf("replayed %d requests, static length says %d", n, info.Length)
			}
		})
	}
}
