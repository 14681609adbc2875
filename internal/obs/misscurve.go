package obs

import (
	"fmt"
	"io"
	"sync"

	"gccache/internal/render"
)

// MissCurvePoint is one sample of the running miss curve: the miss
// ratio over one window of requests ending at request Seq. Partial
// marks the trailing in-progress window flushed by Snapshot — its
// ratio is over Width requests, not the full window.
type MissCurvePoint struct {
	Seq    int64
	Misses int64
	Ratio  float64
	// Width is the number of requests the point covers: the window
	// width for completed points, fewer for the trailing partial one.
	Width int64
	// Partial is set on the trailing in-progress window (Snapshot
	// only); completed ring points always have it false.
	Partial bool
}

// MissCurve is a probe that samples the miss ratio per window of W
// requests into a bounded ring — the time-resolved miss curve that
// makes phase changes (e.g. a working set outgrowing the item layer)
// visible while a replay is still running. It reads access records. Memory is
// bounded by the ring size; steady-state observation does not allocate.
type MissCurve struct {
	mu     sync.Mutex
	window int64 // immutable after construction
	//gclint:guardedby mu
	width int64
	//gclint:guardedby mu
	misses int64
	//gclint:guardedby mu
	ring []MissCurvePoint
	//gclint:guardedby mu
	next int
	//gclint:guardedby mu
	filled int
	//gclint:guardedby mu
	seq int64
}

var _ Probe = (*MissCurve)(nil)

// NewMissCurve returns a miss-curve sampler with the given window width
// in requests, retaining the last points samples (both clamped to
// [1, 1<<20]).
func NewMissCurve(window, points int) *MissCurve {
	return &MissCurve{
		window: int64(clamp(window, 1, 1<<20)),
		ring:   make([]MissCurvePoint, clamp(points, 1, 1<<20)),
	}
}

// Observe implements Probe.
func (m *MissCurve) Observe(r *Record) {
	if !r.access() {
		return
	}
	m.mu.Lock()
	m.seq++
	m.width++
	if r.Class == EvMiss {
		m.misses++
	}
	if m.width >= m.window {
		m.ring[m.next] = MissCurvePoint{
			Seq:    m.seq,
			Misses: m.misses,
			Ratio:  float64(m.misses) / float64(m.width),
			Width:  m.width,
		}
		m.next = (m.next + 1) % len(m.ring)
		if m.filled < len(m.ring) {
			m.filled++
		}
		m.width, m.misses = 0, 0
	}
	m.mu.Unlock()
}

// Reset clears the sampled ring and the in-progress window, returning
// the curve to its initial state.
func (m *MissCurve) Reset() {
	m.mu.Lock()
	m.width, m.misses, m.seq = 0, 0, 0
	m.next, m.filled = 0, 0
	m.mu.Unlock()
}

// Window returns the window width in requests.
func (m *MissCurve) Window() int { return int(m.window) }

// Points returns the completed-window samples, oldest first. The
// in-progress window is excluded; use Snapshot to include it.
func (m *MissCurve) Points() []MissCurvePoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appendCompleted(make([]MissCurvePoint, 0, m.filled))
}

// Snapshot returns the completed-window samples followed by the
// trailing in-progress window flushed as a final point with Partial
// set. A run shorter than one window therefore still reports what it
// saw instead of an empty curve, and the tail of any run is never
// silently dropped.
func (m *MissCurve) Snapshot() []MissCurvePoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.appendCompleted(make([]MissCurvePoint, 0, m.filled+1))
	if m.width > 0 {
		out = append(out, MissCurvePoint{
			Seq:     m.seq,
			Misses:  m.misses,
			Ratio:   float64(m.misses) / float64(m.width),
			Width:   m.width,
			Partial: true,
		})
	}
	return out
}

// appendCompleted appends the ring's points oldest-first. Callers hold mu.
func (m *MissCurve) appendCompleted(out []MissCurvePoint) []MissCurvePoint {
	start := (m.next - m.filled + len(m.ring)) % len(m.ring) //gclint:guardok caller holds mu; documented on the method
	for i := 0; i < m.filled; i++ {                          //gclint:guardok caller holds mu
		out = append(out, m.ring[(start+i)%len(m.ring)]) //gclint:guardok caller holds mu
	}
	return out
}

// Table renders the sampled points, including the trailing partial
// window when one is in progress.
func (m *MissCurve) Table() *render.Table {
	t := &render.Table{
		Title:   "miss curve (per-window miss ratio)",
		Headers: []string{"request", "window misses", "miss ratio", "window"},
	}
	for _, p := range m.Snapshot() {
		width := fmt.Sprintf("%d", p.Width)
		if p.Partial {
			width += " (partial)"
		}
		t.AddRow(p.Seq, p.Misses, p.Ratio, width)
	}
	return t
}

// WriteTo renders the sampled points as aligned text.
func (m *MissCurve) WriteTo(w io.Writer) (int64, error) { return 0, m.Table().WriteText(w) }

// WriteCSV renders the sampled points as CSV.
func (m *MissCurve) WriteCSV(w io.Writer) error { return m.Table().WriteCSV(w) }
