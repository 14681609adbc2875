package obs

import (
	"sync"
	"sync/atomic"
)

// Counters tallies records per kind with atomic counters — the
// cheapest attachable probe (no locks, no allocation), safe to share
// across shards and goroutines. An access counts under its Kind and
// its Class with one atomic add, and its Loaded and Evicted items under
// EvLoad and EvEvict.
type Counters struct {
	// pair[k][c] counts the access records of Kind k and Class c.
	pair [numKinds][numKinds]atomic.Int64
	// n counts lifecycle records by kind, and list items under EvLoad
	// and EvEvict.
	n [numKinds]atomic.Int64
}

var _ Probe = (*Counters)(nil)

// Observe implements Probe.
func (c *Counters) Observe(r *Record) {
	if r.access() {
		c.pair[r.Kind][r.Class].Add(1)
	} else {
		c.n[r.Kind].Add(1)
	}
	if len(r.Loaded) != 0 {
		c.n[EvLoad].Add(int64(len(r.Loaded)))
	}
	if len(r.Evicted) != 0 {
		c.n[EvEvict].Add(int64(len(r.Evicted)))
	}
}

// Get returns the count of kind k: the access records it served or
// classed, the lifecycle records of kind k, or the list items counted
// under it.
func (c *Counters) Get(k Kind) int64 {
	n := c.n[k].Load()
	for i := range c.pair {
		n += c.pair[k][i].Load()
		if Kind(i) != k {
			n += c.pair[i][k].Load()
		}
	}
	return n
}

// ItemsLoaded returns the total items brought in by block loads (≥
// block loads; the surplus is free siblings).
func (c *Counters) ItemsLoaded() int64 { return c.n[EvLoad].Load() }

// Snapshot returns a consistent-enough copy of all per-kind counts
// (each counter is read atomically; the vector is not a global
// snapshot, which is fine for monitoring).
func (c *Counters) Snapshot() [NumKinds]int64 {
	var out [NumKinds]int64
	for i := range out {
		out[i] = c.Get(Kind(i))
	}
	return out
}

// Windowed tracks per-kind counts, as Counters counts them, per window
// of W accesses, retaining the last R completed windows in a ring — the
// "what happened recently" complement to the monotone Counters. A
// lifecycle record counts in the window it falls in. Memory is bounded
// by R windows.
type Windowed struct {
	mu     sync.Mutex
	window int64 // immutable after construction
	//gclint:guardedby mu
	current [NumKinds]int64
	//gclint:guardedby mu
	width int64
	//gclint:guardedby mu
	ring [][NumKinds]int64
	//gclint:guardedby mu
	next int
	//gclint:guardedby mu
	filled int
}

var _ Probe = (*Windowed)(nil)

// NewWindowed returns a Windowed probe with the given window width (in
// requests) retaining the last rings completed windows. Width and rings
// are clamped to ≥ 1 and ≤ 1<<20.
func NewWindowed(window, rings int) *Windowed {
	window = clamp(window, 1, 1<<20)
	rings = clamp(rings, 1, 1<<20)
	return &Windowed{window: int64(window), ring: make([][NumKinds]int64, rings)}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Observe implements Probe.
func (w *Windowed) Observe(r *Record) {
	w.mu.Lock()
	w.current[r.Kind]++
	w.current[EvLoad] += int64(len(r.Loaded))
	w.current[EvEvict] += int64(len(r.Evicted))
	if r.access() {
		w.current[r.Class]++
		if w.width++; w.width >= w.window {
			w.ring[w.next] = w.current
			w.next = (w.next + 1) % len(w.ring)
			if w.filled < len(w.ring) {
				w.filled++
			}
			w.current = [NumKinds]int64{}
			w.width = 0
		}
	}
	w.mu.Unlock()
}

// Window returns the window width in requests.
func (w *Windowed) Window() int { return int(w.window) }

// Last returns the per-kind counts of the most recently completed
// window, and false if no window has completed yet.
func (w *Windowed) Last() ([NumKinds]int64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.filled == 0 {
		return [NumKinds]int64{}, false
	}
	idx := (w.next - 1 + len(w.ring)) % len(w.ring)
	return w.ring[idx], true
}

// History returns the completed windows, oldest first.
func (w *Windowed) History() [][NumKinds]int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([][NumKinds]int64, 0, w.filled)
	start := (w.next - w.filled + len(w.ring)) % len(w.ring)
	for i := 0; i < w.filled; i++ {
		out = append(out, w.ring[(start+i)%len(w.ring)])
	}
	return out
}
