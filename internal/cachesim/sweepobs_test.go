package cachesim

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
)

func TestSweepStatsCoverAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var st SweepStats
		var hits atomic.Int64
		seen := make([]atomic.Bool, 1000)
		Sweep(context.Background(), len(seen), SweepOptions{Workers: workers, Stats: &st}, noWorker, func(i int, _ struct{}) {
			if seen[i].Swap(true) {
				t.Errorf("index %d visited twice", i)
			}
			hits.Add(1)
		})
		if hits.Load() != int64(len(seen)) {
			t.Fatalf("workers=%d: %d calls, want %d", workers, hits.Load(), len(seen))
		}
		tot := st.Totals()
		if tot.Indices != int64(len(seen)) {
			t.Errorf("workers=%d: stats count %d indices, want %d", workers, tot.Indices, len(seen))
		}
		if tot.Chunks < int64(workers) {
			t.Errorf("workers=%d: only %d chunks recorded", workers, tot.Chunks)
		}
		if len(st.Workers) != workers {
			t.Errorf("workers=%d: %d worker slots", workers, len(st.Workers))
		}
		if st.Chunk < 1 {
			t.Errorf("workers=%d: chunk %d", workers, st.Chunk)
		}
	}
}

func TestSweepNilStatsAndEmpty(t *testing.T) {
	n := 0
	Sweep(context.Background(), 100, SweepOptions{Workers: 2}, func() *int { return &n }, func(i int, _ *int) {})
	st := SweepStats{Workers: make([]SweepWorkerStats, 3)}
	Sweep(context.Background(), 0, SweepOptions{Workers: 2, Stats: &st}, noWorker, func(i int, _ struct{}) {
		t.Error("fn called for empty range")
	})
	if len(st.Workers) != 0 {
		t.Errorf("empty sweep left %d worker slots", len(st.Workers))
	}
}

func TestSweepStatsString(t *testing.T) {
	var st SweepStats
	Sweep(context.Background(), 256, SweepOptions{Workers: 2, Stats: &st}, noWorker, func(i int, _ struct{}) {})
	s := st.String()
	for _, want := range []string{"sweep: 2 workers", "worker 0:", "worker 1:", "total:", "imbalance="} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	if im := st.Imbalance(); im != 0 && im < 1 {
		t.Errorf("imbalance %v below 1 with nonzero busy time", im)
	}
}

// TestSweepResetsReusedStats pins that Sweep starts a reused SweepStats
// from zero: no field of an earlier run — its worker slots, its chunk
// size — may leak into the next report.
func TestSweepResetsReusedStats(t *testing.T) {
	var st SweepStats
	Sweep(context.Background(), 1000, SweepOptions{Workers: 4, Stats: &st}, noWorker, func(int, struct{}) {})
	Sweep(context.Background(), 8, SweepOptions{Workers: 1, Stats: &st}, noWorker, func(int, struct{}) {})
	if len(st.Workers) != 1 || st.Workers[0].Indices != 8 {
		t.Errorf("one-worker sweep after a four-worker one reports slots %+v", st.Workers)
	}
	if st.Chunk < 1 {
		t.Fatalf("chunk %d after a non-empty sweep", st.Chunk)
	}
	Sweep(context.Background(), 0, SweepOptions{Stats: &st}, noWorker, func(int, struct{}) {})
	if st.Chunk != 0 || len(st.Workers) != 0 {
		t.Errorf("empty sweep left stale stats: %+v", st)
	}
}
