package obs_test

// The suite golden pins what the full probe suite reports for each
// scenario of the corpus: every Counters kind and items-loaded, the
// buckets of the reuse, gap and residency histograms with the reuse
// cold count, and the miss-curve points. A change to how probes are
// fed must leave every line as it is.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/scenario"
	"gccache/internal/trace"
)

// suiteGoldenPolicies are the policies whose suite view is pinned:
// every policy core.ByName builds.
var suiteGoldenPolicies = core.PolicyNames()

const (
	suiteGoldenLen  = 20000
	suiteGoldenK    = 4096
	suiteGoldenB    = 64
	suiteGoldenSeed = 1
)

// TestProbeSuiteGolden replays the first suiteGoldenLen requests of
// every scenarios/*.gcs at seed 1 through each pinned policy with the
// "all" suite attached, and compares the suite's view with
// testdata/probe-suite.golden.
func TestProbeSuiteGolden(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*.gcs")
	if err != nil || len(files) == 0 {
		t.Fatalf("no scenarios found (err %v)", err)
	}
	g := model.NewFixed(suiteGoldenB)
	var got strings.Builder
	for _, f := range files {
		p, _, err := scenario.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := scenario.Trace(p, suiteGoldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		tr = tr[:min(len(tr), suiteGoldenLen)]
		for _, name := range suiteGoldenPolicies {
			build, err := core.ByName(name, g, suiteGoldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			suite, err := obs.NewSuite("all")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cachesim.Replay(context.Background(), build(suiteGoldenK), trace.NewSliceSource(tr),
				cachesim.ReplayOptions{Probe: suite}); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "== %s %s\n", filepath.Base(f), name)
			writeSuiteView(&got, suite)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "probe-suite.golden"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("suite view differs from testdata/probe-suite.golden at line %d:\ngot  %s\nwant %s", i+1, g, w)
		}
	}
}

// writeSuiteView writes the suite's counters, histogram buckets and
// miss-curve points, one section a line.
func writeSuiteView(w *strings.Builder, s *obs.Suite) {
	w.WriteString("counters")
	snap := s.Counters.Snapshot()
	for k := range obs.NumKinds {
		fmt.Fprintf(w, " %s=%d", obs.Kind(k), snap[k])
	}
	fmt.Fprintf(w, " items-loaded=%d\n", s.Counters.ItemsLoaded())
	fmt.Fprintf(w, "reuse cold=%d", s.Reuse.ColdCount())
	writeBuckets(w, s.Reuse.Hist())
	w.WriteString("gaps")
	writeBuckets(w, s.Gaps.Hist())
	w.WriteString("residency")
	writeBuckets(w, s.Residency.Hist())
	w.WriteString("misscurve")
	for _, p := range s.Curve.Snapshot() {
		fmt.Fprintf(w, " %d:%d/%d", p.Seq, p.Misses, p.Width)
		if p.Partial {
			w.WriteString("p")
		}
	}
	w.WriteString("\n")
}

// writeBuckets writes h's non-empty buckets as range:count, then ends
// the line. The rendered table lists the buckets before its p50 row.
func writeBuckets(w *strings.Builder, h *obs.Histogram) {
	for _, row := range h.Table().Rows {
		if row[0] == "p50" {
			break
		}
		fmt.Fprintf(w, " %s:%s", row[0], row[1])
	}
	w.WriteString("\n")
}
