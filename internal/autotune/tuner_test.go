package autotune

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/policy"
)

// fakeResizable records SetItemLayerTarget calls.
type fakeResizable struct {
	target int
	calls  int
}

func (f *fakeResizable) ItemLayerTarget() int     { return f.target }
func (f *fakeResizable) SetItemLayerTarget(i int) { f.target = i; f.calls++ }

// feedRequests pushes n access records for the cyclic item range
// [0, span) into t.
func feedRequests(t *Tuner, n, span int) {
	for i := 0; i < n; i++ {
		t.Observe(&obs.Record{Kind: obs.EvHitItemLayer, Item: model.Item(i % span)})
	}
}

// newTestTuner builds a two-candidate tuner where the workload of
// feedRequests(_, n, 48) makes i=64 (pure item cache) a runaway winner
// over i=32: with B=1 there is no spatial locality to reward the block
// layer, so 48 cycling items fit a 64-slot LRU entirely (48 cold misses
// in the first window, none after) but thrash both 32-slot halves of
// the split (96 misses every window).
func newTestTuner(t *testing.T, patience, minInterval int) *Tuner {
	t.Helper()
	tn, err := New(Config{
		K: 64, B: 1, Window: 96,
		Candidates:  []int{32, 64},
		Patience:    patience,
		MinInterval: minInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	tn.SetLiveTarget(32)
	return tn
}

// TestTunerProposesAfterPatience pins the hysteresis contract: a
// challenger that wins by MinGain must keep winning for Patience
// consecutive windows before a proposal appears, and Apply enacts it
// exactly once.
func TestTunerProposesAfterPatience(t *testing.T) {
	tn := newTestTuner(t, 2, 1)
	feedRequests(tn, 96, 48) // window 1
	s := tn.State()
	if s.Windows != 1 || s.Streak != 1 {
		t.Fatalf("after window 1: windows=%d streak=%d, want 1/1", s.Windows, s.Streak)
	}
	if _, ok := tn.Pending(); ok {
		t.Fatal("proposal after a single winning window with Patience=2")
	}
	feedRequests(tn, 96, 48) // window 2
	p, ok := tn.Pending()
	if !ok || p != 64 {
		t.Fatalf("after window 2: pending=%d ok=%v, want 64", p, ok)
	}

	rz := &fakeResizable{target: 32}
	target, applied := tn.Apply(rz)
	if !applied || target != 64 || rz.target != 64 || rz.calls != 1 {
		t.Fatalf("Apply: target=%d applied=%v rz=%+v", target, applied, rz)
	}
	if _, again := tn.Apply(rz); again {
		t.Fatal("second Apply re-fired a consumed proposal")
	}
	if got := tn.State().Resizes; got != 1 {
		t.Fatalf("Resizes=%d, want 1", got)
	}
	// The live target moved to the winner, so the same traffic must not
	// generate further proposals.
	feedRequests(tn, 96*4, 48)
	if _, ok := tn.Pending(); ok {
		t.Fatal("proposal to resize to the already-live target")
	}
}

// TestTunerRateCap pins the resize-rate cap: after an applied resize,
// no new proposal may appear until MinInterval further windows have
// elapsed, even with Patience long since satisfied. The cap spaces
// consecutive moves — it does not delay the first one, which fires as
// soon as Patience allows.
func TestTunerRateCap(t *testing.T) {
	tn := newTestTuner(t, 1, 3)
	rz := &fakeResizable{target: 32}

	// First move: Patience=1, so one winning window suffices.
	feedRequests(tn, 96, 48)
	if p, ok := tn.Pending(); !ok || p != 64 {
		t.Fatalf("first proposal: pending=%d ok=%v, want 64", p, ok)
	}
	if _, applied := tn.Apply(rz); !applied {
		t.Fatal("first Apply did not fire")
	}

	// An operator moves the split back; the tuner re-detects the win but
	// must now respect the spacing.
	tn.SetLiveTarget(32)
	for w := 1; w <= 2; w++ {
		feedRequests(tn, 96, 48)
		if _, ok := tn.Pending(); ok {
			t.Fatalf("proposal %d windows after an applied resize with MinInterval=3", w)
		}
	}
	feedRequests(tn, 96, 48)
	if p, ok := tn.Pending(); !ok || p != 64 {
		t.Fatalf("after the interval: pending=%d ok=%v, want 64", p, ok)
	}
}

// TestTunerHoldsWithoutGain pins the dead-band: when the challenger's
// advantage is inside MinGain the incumbent is kept indefinitely.
func TestTunerHoldsWithoutGain(t *testing.T) {
	tn, err := New(Config{
		K: 64, B: 1, Window: 128,
		Candidates:  []int{32, 64},
		Patience:    1,
		MinInterval: 1,
		MinGain:     0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	tn.SetLiveTarget(64)
	// Fresh items every access: with B=1 every candidate misses every
	// time — zero gain for anyone, so never a proposal.
	for i := 0; i < 128*6; i++ {
		tn.Observe(&obs.Record{Kind: obs.EvHit, Item: model.Item(i)})
	}
	if _, ok := tn.Pending(); ok {
		t.Fatal("proposal despite zero miss-count gain")
	}
	if s := tn.State(); s.Streak != 0 {
		t.Fatalf("streak=%d under tied candidates, want 0", s.Streak)
	}
}

// TestTunerTiebreakPrefersFormula: when candidates tie on window
// misses, the winner must be the one nearest the §5.3 formula target.
// With B=1 the formula always says i=k (the block layer can never pay
// off), so the all-miss workload's winner is the largest item layer.
func TestTunerTiebreakPrefersFormula(t *testing.T) {
	tn, err := New(Config{
		K: 64, B: 1, Window: 128,
		Candidates: []int{0, 16, 32, 48, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		tn.Observe(&obs.Record{Kind: obs.EvHit, Item: model.Item(i)})
	}
	s := tn.State()
	if s.Formula != 64 {
		t.Fatalf("formula target = %d with B=1, want k=64", s.Formula)
	}
	if s.Winner != 64 {
		t.Fatalf("tied winner = %d, want formula side 64", s.Winner)
	}
}

// TestTunerTracksLiveFromResizeEvents: EvLayerResize records — whoever
// causes them — update the incumbent the comparisons run against.
func TestTunerTracksLiveFromResizeEvents(t *testing.T) {
	tn := newTestTuner(t, 2, 1)
	tn.Observe(&obs.Record{Kind: obs.EvLayerResize, N: 64})
	if s := tn.State(); s.Live != 64 {
		t.Fatalf("live=%d after EvLayerResize(64)", s.Live)
	}
	// i=64 is already live, so its winning streak must not propose.
	feedRequests(tn, 96*4, 48)
	if _, ok := tn.Pending(); ok {
		t.Fatal("proposal to move to the already-live split")
	}
}

// TestTunerSkipsOutOfUniverse: items at or past cachesim.MaxUniverse
// are counted and ignored — they must not reach the ghosts or advance
// the window clock.
func TestTunerSkipsOutOfUniverse(t *testing.T) {
	tn, err := New(Config{K: 16, B: 4, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tn.Observe(&obs.Record{Kind: obs.EvHit, Item: model.Item(cachesim.MaxUniverse)})
	}
	s := tn.State()
	if s.Skipped != 100 || s.Requests != 0 || s.Windows != 0 {
		t.Fatalf("skipped=%d requests=%d windows=%d, want 100/0/0", s.Skipped, s.Requests, s.Windows)
	}
}

// TestTunerApplyReentrancy: Apply calls SetItemLayerTarget on a live
// cache whose probe is this same tuner, so the resulting EvLayerResize
// record re-enters Observe. This must not deadlock and must leave the tuner's
// live target in sync.
func TestTunerApplyReentrancy(t *testing.T) {
	const universe = 1 << 12
	g := model.NewFixed(1)
	live := core.NewIBLP(32, 32, g)
	tn := newTestTuner(t, 1, 1)
	tn.SetLiveTarget(32)
	live.SetProbe(tn)
	defer live.SetProbe(nil)
	rec := cachesim.NewRecorder(live.Name(), 0)
	rec.SetProbe(tn)

	tr := make([]model.Item, 96*2)
	for i := range tr {
		tr[i] = model.Item(i % 48)
	}
	rec.Serve(live, tr)
	if p, ok := tn.Pending(); !ok || p != 64 {
		t.Fatalf("pending=%d ok=%v, want 64", p, ok)
	}
	target, applied := tn.Apply(live)
	if !applied || target != 64 {
		t.Fatalf("Apply: target=%d applied=%v", target, applied)
	}
	if got := live.ItemLayerTarget(); got != 64 {
		t.Fatalf("live cache target=%d after Apply", got)
	}
	if s := tn.State(); s.Live != 64 {
		t.Fatalf("tuner live=%d after Apply", s.Live)
	}
}

// TestTunerZeroAllocSteadyState is the zero-alloc proof at system
// level: a live cache and its recorder with the tuner attached as their
// probe must serve accesses at 0 allocs/op — including the accesses that cross
// decision-window boundaries, so the whole endWindow step (formula,
// comparison, window roll) is covered.
func TestTunerZeroAllocSteadyState(t *testing.T) {
	const universe = 1 << 12
	g := model.NewFixed(16)
	live := core.NewIBLPEvenSplit(512, g)
	tn, err := New(Config{K: 512, B: 16, Window: 64})
	if err != nil {
		t.Fatal(err)
	}
	tn.SetLiveTarget(live.ItemLayerTarget())
	live.SetProbe(tn)
	defer live.SetProbe(nil)
	rec := cachesim.NewRecorder(live.Name(), universe)
	rec.SetProbe(tn)
	tr := make([]model.Item, universe*2)
	for i := range tr {
		tr[i] = model.Item(i % universe)
	}
	rec.Serve(live, tr)
	i := 0
	// 2000 runs with Window=64 cross ~60 window boundaries, incl. in
	// the measured runs.
	if avg := testing.AllocsPerRun(2000, func() {
		it := model.Item(i % universe)
		rec.Observe(it, live.Access(it))
		i += 37
	}); avg != 0 {
		t.Errorf("live access with tuner probe: %.2f allocs/op, want 0", avg)
	}
}

// TestTunerStateAndRendering sanity-checks the dashboard surface.
func TestTunerStateAndRendering(t *testing.T) {
	tn := newTestTuner(t, 2, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 96*5; i++ {
		tn.Observe(&obs.Record{Kind: obs.EvHit, Item: model.Item(rng.Intn(400))})
	}
	s := tn.State()
	if s.Windows != 5 {
		t.Fatalf("windows=%d, want 5", s.Windows)
	}
	// Every ghost sees every request, so its lifetime hits and misses
	// sum to the requests.
	for _, c := range s.Candidates {
		if c.Hits+c.Misses != s.Requests {
			t.Errorf("i=%d: hits %d + misses %d != %d requests", c.Target, c.Hits, c.Misses, s.Requests)
		}
	}
	var sb strings.Builder
	if _, err := tn.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"autotune:", "item layer", "live"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteTo output missing %q:\n%s", want, out)
		}
	}
}

// TestTunerConfigValidation covers New's error paths.
func TestTunerConfigValidation(t *testing.T) {
	if _, err := New(Config{K: 0, B: 8}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := New(Config{K: 64, B: 0}); err == nil {
		t.Error("B=0 accepted")
	}
	if _, err := New(Config{K: 64, B: 8, Candidates: []int{7, 7}}); err == nil {
		t.Error("single distinct candidate accepted")
	}
}

// TestNewLiveSeedsTheLiveTarget: NewLive starts the incumbent at the
// live cache's split and refuses a cache that cannot be resized.
func TestNewLiveSeedsTheLiveTarget(t *testing.T) {
	tn, err := NewLive(Config{K: 64, B: 1}, core.NewIBLP(16, 48, model.NewFixed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if live := tn.State().Live; live != 16 {
		t.Errorf("live target %d, want the cache's item layer 16", live)
	}
	if _, err := NewLive(Config{K: 64, B: 1}, policy.NewItemLRU(64)); err == nil || !strings.Contains(err.Error(), "resizing") {
		t.Errorf("NewLive accepted a cache without layers (err=%v)", err)
	}
}

// TestApplyLoopAppliesUnderTheCallersLock: ApplyLoop enacts a pending
// proposal through withCache, calls it only while a proposal waits, and
// returns when its context ends.
func TestApplyLoopAppliesUnderTheCallersLock(t *testing.T) {
	tn := newTestTuner(t, 1, 1)
	live := core.NewIBLP(32, 32, model.NewFixed(1))
	var mu sync.Mutex
	calls := 0
	withCache := func(f func(cachesim.Cache)) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		f(live)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		tn.ApplyLoop(ctx, withCache)
	}()

	feedRequests(tn, 96, 48) // one winning window: Patience 1 proposes i=64
	deadline := time.Now().Add(10 * time.Second)
	for tn.State().Resizes < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no resize applied within 10s: %+v", tn.State())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if got := live.ItemLayerTarget(); got != 64 {
		t.Errorf("live cache target %d, want 64", got)
	}
	if calls != 1 {
		t.Errorf("withCache ran %d times for one proposal", calls)
	}
}
