// Package autotune closes the §5.3 loop under live traffic: ghost
// caches — one core.IBLP per candidate layer split — run alongside the
// live policy off the same request stream, their per-window miss counts
// feed the paper's partition-sizing formulas, and a controller (Tuner)
// issues layer-resize moves to the live cache through
// cachesim.LayerResizable, with hysteresis and a resize-rate cap so
// transient phases cannot thrash the partition.
//
// The ghosts are the policy being tuned, so each decides exactly as the
// live cache would at its split. They serve no data and carry no probe;
// the Tuner counts their misses, and a warmed grid never allocates
// (pinned by TestTunerZeroAllocSteadyState).
package autotune

import (
	"fmt"
	"io"
	"math"
	"sync"

	"gccache/internal/bitset"
	"gccache/internal/bounds"
	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/render"
)

// Config parameterizes a Tuner. Zero values get the documented
// defaults; K and B are required.
type Config struct {
	// K is the live cache's total size (item layer + block layer).
	K int
	// B is the block size: the ghosts' fixed geometry and the §5.3
	// formulas both use it.
	B int
	// Window is the decision interval in requests (default 4096): each
	// window ends with one compare-and-maybe-propose step.
	Window int
	// Candidates are the item-layer sizes the ghosts run. Default: a nine
	// point grid over [0, K] at K/8 spacing. Values are clamped to
	// [0, K] and deduplicated.
	Candidates []int
	// MinGain is the relative window-miss improvement a challenger must
	// show over the incumbent split before it counts toward a proposal
	// (default 0.05). This is the hysteresis dead-band: within it the
	// incumbent is kept even if technically second-best.
	MinGain float64
	// TieTol is the relative band above the per-window minimum within
	// which candidates count as tied (default 0.02). Ties break toward
	// the §5.3 formula target, so the paper's prior decides whenever
	// the data cannot.
	TieTol float64
	// Patience is how many consecutive windows the same challenger must
	// win (by MinGain) before a resize is proposed (default 2).
	Patience int
	// MinInterval is the resize-rate cap: at least this many windows
	// must pass between applied resizes (default 4).
	MinInterval int
}

func (c *Config) setDefaults() error {
	if c.K < 1 {
		return fmt.Errorf("autotune: K=%d, need >= 1", c.K)
	}
	if c.B < 1 {
		return fmt.Errorf("autotune: B=%d, need >= 1", c.B)
	}
	if c.Window <= 0 {
		c.Window = 4096
	}
	if len(c.Candidates) == 0 {
		for j := 0; j <= 8; j++ {
			c.Candidates = append(c.Candidates, j*c.K/8)
		}
	}
	if c.MinGain <= 0 {
		c.MinGain = 0.05
	}
	if c.TieTol <= 0 {
		c.TieTol = 0.02
	}
	if c.Patience <= 0 {
		c.Patience = 2
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 4
	}
	return nil
}

// CandidateState is one ghost's standing in a State snapshot.
type CandidateState struct {
	Target int // item-layer size this ghost runs
	// LastWindowMisses is the ghost's miss count over the most recent
	// completed window (0 before the first window completes).
	LastWindowMisses int64
	Hits             int64 // lifetime
	Misses           int64 // lifetime
}

// State is a consistent snapshot of the controller for dashboards and
// tests.
type State struct {
	Window     int   // configured decision interval (requests)
	Windows    int64 // completed windows
	Requests   int64 // in-universe requests observed
	Skipped    int64 // out-of-universe requests ignored
	Live       int   // live item-layer target (-1 if not yet known)
	Formula    int   // last §5.3 formula target
	WorkingSet int   // last per-window working-set estimate
	Winner     int   // last empirical winner
	Streak     int   // consecutive windows the current challenger has won
	Pending    int   // proposed target awaiting Apply (-1 if none)
	Resizes    int64 // resizes applied through this tuner
	Candidates []CandidateState
}

// Tuner is the §5.3 closed-loop controller. Attached as an obs.Probe to
// the live policy and its recorder, it clocks on access records (exactly
// one per access, in replay and cluster modes alike), feeds every request for
// an item below cachesim.MaxUniverse to the candidate ghosts (it counts
// and ignores the rest, so neither they nor its own presence array
// outgrow what Replay admits), and at each window boundary compares their
// miss counts: the winner — with the §5.3 formula target breaking
// near-ties — must beat the incumbent split by MinGain for Patience
// consecutive windows before a resize is proposed, and proposals are
// spaced at least MinInterval windows apart. Proposals are buffered,
// never pushed: obs.Probe forbids calling back into the emitting cache,
// so the serving loop polls Apply at a point where it holds the lock
// that serializes Access.
//
// Observe is safe for concurrent use (one mutex; ghosts are cheap), so
// a single Tuner can sit in a probe Multi anywhere the serving stack
// emits events.
type Tuner struct {
	mu  sync.Mutex
	cfg Config

	//gclint:guardedby mu
	ghosts []ghost
	//gclint:guardedby mu
	candidates []int

	// Working-set estimator: epoch-stamped presence array, grown with
	// the largest item seen. distinct is the number of in-universe items
	// first seen this window.
	//gclint:guardedby mu
	seen []uint32
	//gclint:guardedby mu
	epoch uint32
	//gclint:guardedby mu
	distinct int

	//gclint:guardedby mu
	width int64 // requests into the current window
	//gclint:guardedby mu
	windows int64
	//gclint:guardedby mu
	requests int64
	//gclint:guardedby mu
	skipped int64

	//gclint:guardedby mu
	live int // live target: last EvLayerResize / SetLiveTarget / Apply
	//gclint:guardedby mu
	streakIdx int // candidate index of the current challenger (-1 none)
	//gclint:guardedby mu
	streak int
	//gclint:guardedby mu
	pending int // proposed target (-1 none)
	//gclint:guardedby mu
	sinceApply int
	//gclint:guardedby mu
	resizes int64

	//gclint:guardedby mu
	lastFormula int
	//gclint:guardedby mu
	lastWS int
	//gclint:guardedby mu
	lastWinner int
	//gclint:guardedby mu
	lastMiss []int64 // per-candidate misses of the last completed window
}

// ghost is one candidate split and its misses: every ghost sees every
// in-universe request, so its hits are the requests less its misses.
type ghost struct {
	c      *core.IBLP
	misses int64 // lifetime
	window int64 // misses in the current window
}

var _ obs.Probe = (*Tuner)(nil)

// New returns a Tuner for the given configuration, with one ghost per
// candidate split.
func New(cfg Config) (*Tuner, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	// Clamp, dedup, and sort the candidate grid.
	seen := map[int]bool{}
	var cands []int
	for _, i := range cfg.Candidates {
		if i < 0 {
			i = 0
		}
		if i > cfg.K {
			i = cfg.K
		}
		if !seen[i] {
			seen[i] = true
			cands = append(cands, i)
		}
	}
	for a := 1; a < len(cands); a++ { // insertion sort: tiny, no deps
		for b := a; b > 0 && cands[b] < cands[b-1]; b-- {
			cands[b], cands[b-1] = cands[b-1], cands[b]
		}
	}
	if len(cands) < 2 {
		return nil, fmt.Errorf("autotune: %d distinct candidates, need >= 2", len(cands))
	}
	t := &Tuner{
		cfg:        cfg,
		candidates: cands,
		epoch:      1,
		live:       -1,
		streakIdx:  -1,
		pending:    -1,
		// The rate cap spaces consecutive *applied* resizes; a fresh
		// tuner facing a clearly bad split may move as soon as Patience
		// is satisfied, so it starts with the interval already elapsed.
		sinceApply: cfg.MinInterval,
		lastMiss:   make([]int64, len(cands)),
	}
	geo := model.NewFixed(cfg.B)
	for _, i := range cands {
		t.ghosts = append(t.ghosts, ghost{c: core.NewIBLP(i, cfg.K-i, geo)})
	}
	return t, nil
}

// NewLive returns a Tuner for the live cache c, seeded with c's current
// item-layer target. It refuses a cache that cannot be resized. The
// caller must hold whatever lock serializes c.Access, and attaches the
// tuner as c's probe.
func NewLive(cfg Config, c cachesim.Cache) (*Tuner, error) {
	rz, ok := c.(cachesim.LayerResizable)
	if !ok {
		return nil, fmt.Errorf("autotune: policy %s does not support layer resizing (need iblp or adaptive)", c.Name())
	}
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	t.SetLiveTarget(rz.ItemLayerTarget())
	return t, nil
}

// Candidates returns the deduplicated, sorted candidate grid.
func (t *Tuner) Candidates() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, len(t.candidates))
	copy(out, t.candidates)
	return out
}

// SetLiveTarget seeds the incumbent split when the tuner is attached to
// an already-configured cache. Without it the incumbent is unknown and
// the first window's winner qualifies unconditionally.
func (t *Tuner) SetLiveTarget(i int) {
	t.mu.Lock()
	t.live = i
	t.mu.Unlock()
}

// Observe implements obs.Probe. Access records drive the ghosts and
// the window clock; EvLayerResize keeps the incumbent in sync
// (including moves made by others, e.g. AdaptiveIBLP's own votes).
//
//gclint:hotpath
func (t *Tuner) Observe(r *obs.Record) {
	if r.Kind == obs.EvMark || r.Kind == obs.EvPhaseReset {
		return
	}
	t.mu.Lock()
	roll := false
	switch {
	case r.Kind == obs.EvLayerResize:
		t.live = int(r.N)
	case r.Item >= cachesim.MaxUniverse:
		t.skipped++
	default:
		for j := range t.ghosts {
			if g := &t.ghosts[j]; !g.c.Access(r.Item).Hit {
				g.misses++
				g.window++
			}
		}
		if uint64(r.Item) >= uint64(len(t.seen)) {
			// New stamps are 0, which matches no epoch.
			t.seen = bitset.Grow(t.seen, uint64(r.Item))
		}
		if t.seen[r.Item] != t.epoch {
			t.seen[r.Item] = t.epoch
			t.distinct++
		}
		t.requests++
		t.width++
		roll = t.width >= int64(t.cfg.Window)
	}
	t.mu.Unlock()
	if roll {
		t.endWindow()
	}
}

// endWindow runs one decision step. It takes t.mu itself and re-checks
// the width so a racing Observe cannot roll the same window twice. It
// must not allocate: the steady-state zero-alloc proof spans window
// boundaries.
func (t *Tuner) endWindow() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.width < int64(t.cfg.Window) {
		return
	}
	t.windows++
	t.sinceApply++

	// §5.3 prior: the per-window working set stands in for h, the
	// optimal comparison cache the formula assumes known.
	t.lastWS = t.distinct
	h := float64(t.distinct)
	if h < 1 {
		h = 1
	}
	if h > float64(t.cfg.K) {
		h = float64(t.cfg.K)
	}
	fi := bounds.OptimalItemLayer(float64(t.cfg.K), h, float64(t.cfg.B))
	formula := t.cfg.K
	if !math.IsNaN(fi) {
		formula = int(math.Round(fi))
		if formula < 0 {
			formula = 0
		}
		if formula > t.cfg.K {
			formula = t.cfg.K
		}
	}
	t.lastFormula = formula

	// Empirical winner with formula tiebreak: among candidates within
	// TieTol of the window's minimum misses, prefer the one nearest the
	// formula target.
	minM := t.ghosts[0].window
	for _, g := range t.ghosts[1:] {
		minM = min(minM, g.window)
	}
	band := minM + int64(float64(minM)*t.cfg.TieTol)
	best, bestDist := -1, 0
	for idx, g := range t.ghosts {
		if g.window > band {
			continue
		}
		d := t.candidates[idx] - formula
		if d < 0 {
			d = -d
		}
		if best < 0 || d < bestDist {
			best, bestDist = idx, d
		}
	}
	winner := t.candidates[best]
	winnerM := t.ghosts[best].window
	t.lastWinner = winner

	// Incumbent: the ghost nearest the live split (exact when live is
	// on the grid). Unknown live makes the challenger qualify outright.
	incM := int64(-1)
	if t.live >= 0 {
		nearest, nd := -1, 0
		for idx, c := range t.candidates {
			d := c - t.live
			if d < 0 {
				d = -d
			}
			if nearest < 0 || d < nd {
				nearest, nd = idx, d
			}
		}
		incM = t.ghosts[nearest].window
	}

	improves := winner != t.live &&
		(incM < 0 || float64(incM-winnerM) > t.cfg.MinGain*float64(max(incM, 1)))
	if improves {
		if t.streakIdx == best {
			t.streak++
		} else {
			t.streakIdx, t.streak = best, 1
		}
	} else {
		t.streakIdx, t.streak = -1, 0
	}
	if t.streak >= t.cfg.Patience && t.sinceApply >= t.cfg.MinInterval {
		t.pending = winner
	}

	// Record the last-window view and restart each ghost's window count.
	for idx := range t.ghosts {
		g := &t.ghosts[idx]
		t.lastMiss[idx], g.window = g.window, 0
	}

	// Roll the window.
	t.width = 0
	t.distinct = 0
	t.epoch++
	if t.epoch == 0 { // wrapped: the stale stamps are ambiguous again
		clear(t.seen)
		t.epoch = 1
	}
}

// Pending returns the proposed target, if any, without consuming it.
func (t *Tuner) Pending() (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending, t.pending >= 0
}

// Apply enacts a pending proposal on the live cache and reports what it
// did. The caller must hold whatever lock serializes rz.Access —
// SetItemLayerTarget is not concurrency-safe against it. Apply itself
// releases the tuner's mutex before touching rz, so the resize's own
// EvLayerResize event can re-enter Observe without deadlock.
func (t *Tuner) Apply(rz cachesim.LayerResizable) (int, bool) {
	t.mu.Lock()
	target := t.pending
	apply := target >= 0 && target != t.live
	if target >= 0 {
		t.pending = -1
	}
	if apply {
		t.live = target
		t.sinceApply = 0
		t.streakIdx, t.streak = -1, 0
		t.resizes++
	}
	t.mu.Unlock()
	if !apply {
		return 0, false
	}
	rz.SetItemLayerTarget(target)
	return target, true
}

// State returns a consistent snapshot. It allocates; call it from paid
// paths (dashboards, tests) only.
func (t *Tuner) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := State{
		Window:     t.cfg.Window,
		Windows:    t.windows,
		Requests:   t.requests,
		Skipped:    t.skipped,
		Live:       t.live,
		Formula:    t.lastFormula,
		WorkingSet: t.lastWS,
		Winner:     t.lastWinner,
		Streak:     t.streak,
		Pending:    t.pending,
		Resizes:    t.resizes,
	}
	for idx, g := range t.ghosts {
		s.Candidates = append(s.Candidates, CandidateState{
			Target:           t.candidates[idx],
			LastWindowMisses: t.lastMiss[idx],
			Hits:             t.requests - g.misses,
			Misses:           g.misses,
		})
	}
	return s
}

// Table renders the ghost standings for the dashboard.
func (t *Tuner) Table() *render.Table {
	s := t.State()
	tb := &render.Table{
		Title:   "autotune shadow splits (per-window misses)",
		Headers: []string{"item layer", "last window", "lifetime misses", "lifetime hits", "role"},
	}
	for _, c := range s.Candidates {
		role := ""
		if c.Target == s.Winner {
			role = "winner"
		}
		if s.Live >= 0 && c.Target == s.Live {
			if role != "" {
				role += "+"
			}
			role += "live"
		}
		tb.AddRow(c.Target, c.LastWindowMisses, c.Misses, c.Hits, role)
	}
	return tb
}

// WriteTo renders the controller state as aligned text.
func (t *Tuner) WriteTo(w io.Writer) (int64, error) {
	s := t.State()
	pending := "none"
	if s.Pending >= 0 {
		pending = fmt.Sprintf("%d", s.Pending)
	}
	live := "unknown"
	if s.Live >= 0 {
		live = fmt.Sprintf("%d", s.Live)
	}
	fmt.Fprintf(w, "autotune: windows=%d (W=%d) requests=%d skipped=%d\n",
		s.Windows, s.Window, s.Requests, s.Skipped)
	fmt.Fprintf(w, "live=%s formula=%d (working set %d) winner=%d streak=%d pending=%s resizes=%d\n",
		live, s.Formula, s.WorkingSet, s.Winner, s.Streak, pending, s.Resizes)
	return 0, t.Table().WriteText(w)
}
