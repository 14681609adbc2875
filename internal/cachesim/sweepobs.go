package cachesim

import (
	"fmt"
	"strings"
	"time"
)

// SweepWorkerStats is one worker's share of an observed Sweep.
type SweepWorkerStats struct {
	// Chunks is how many chunks this worker claimed from the shared
	// counter — the "steal" count; a worker stuck on slow grid points
	// claims fewer.
	Chunks int64
	// Indices is how many grid points this worker processed.
	Indices int64
	// BusyNanos is wall-clock time spent inside fn, in nanoseconds.
	BusyNanos int64
}

// Busy returns the worker's busy time as a duration.
func (w SweepWorkerStats) Busy() time.Duration { return time.Duration(w.BusyNanos) }

// SweepStats collects per-worker engine statistics from a Sweep run
// with SweepOptions.Stats set. The zero value is ready to pass; Sweep
// resets it on entry.
type SweepStats struct {
	// Workers has one slot per launched worker; each worker writes only
	// its own slot, so the slice is safe to read once the sweep returns.
	Workers []SweepWorkerStats
	// Chunk is the chunk size the engine picked for the run.
	Chunk int
}

// Totals sums the per-worker counters.
func (s *SweepStats) Totals() SweepWorkerStats {
	var t SweepWorkerStats
	for _, w := range s.Workers {
		t.Chunks += w.Chunks
		t.Indices += w.Indices
		t.BusyNanos += w.BusyNanos
	}
	return t
}

// Imbalance returns max/mean of per-worker busy time — 1.0 is a
// perfectly balanced sweep; large values mean a few workers carried the
// run. Returns 0 when nothing was measured.
func (s *SweepStats) Imbalance() float64 {
	if len(s.Workers) == 0 {
		return 0
	}
	var sum, max int64
	for _, w := range s.Workers {
		sum += w.BusyNanos
		if w.BusyNanos > max {
			max = w.BusyNanos
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.Workers))
	return float64(max) / mean
}

// String renders a one-line-per-worker summary plus totals, e.g. for
// the gcserve /sweep page. Timings are wall-clock and nondeterministic;
// do not put this in repro artifacts.
func (s *SweepStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d workers, chunk=%d\n", len(s.Workers), s.Chunk)
	for i, w := range s.Workers {
		fmt.Fprintf(&b, "  worker %d: chunks=%d indices=%d busy=%v\n",
			i, w.Chunks, w.Indices, w.Busy())
	}
	t := s.Totals()
	fmt.Fprintf(&b, "  total: chunks=%d indices=%d busy=%v imbalance=%.2f\n",
		t.Chunks, t.Indices, t.Busy(), s.Imbalance())
	return b.String()
}

// nowNano is the sweep engine's clock. Split out so the hot replay
// paths never touch it: timing happens only inside Sweep with a non-nil
// stats target.
func nowNano() int64 { return time.Now().UnixNano() }
