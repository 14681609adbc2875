package obs

import (
	"strings"
	"testing"

	"gccache/internal/model"
)

func TestProbeKindStrings(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
	policy, recorder := 0, 0
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.IsPolicyRequest() {
			policy++
		}
		if k.IsRecorderRequest() {
			recorder++
		}
		if k.IsPolicyRequest() && k.IsRecorderRequest() {
			t.Errorf("kind %v is in both request views", k)
		}
	}
	if policy != 4 || recorder != 3 {
		t.Errorf("request-view kinds: policy %d (want 4), recorder %d (want 3)", policy, recorder)
	}
}

func TestProbeCounters(t *testing.T) {
	var c Counters
	c.Observe(Event{Kind: EvHit})
	c.Observe(Event{Kind: EvHitItemLayer})
	c.Observe(Event{Kind: EvHitBlockLayer})
	c.Observe(Event{Kind: EvBlockLoad, N: 8})
	c.Observe(Event{Kind: EvBlockLoad, N: 3})
	if got := c.PolicyHits(); got != 3 {
		t.Errorf("PolicyHits = %d, want 3", got)
	}
	if got := c.PolicyMisses(); got != 2 {
		t.Errorf("PolicyMisses = %d, want 2", got)
	}
	if got := c.PolicyAccesses(); got != 5 {
		t.Errorf("PolicyAccesses = %d, want 5", got)
	}
	if got := c.ItemsLoaded(); got != 11 {
		t.Errorf("ItemsLoaded = %d, want 11", got)
	}
	snap := c.Snapshot()
	if snap[EvHit] != 1 || snap[EvBlockLoad] != 2 {
		t.Errorf("snapshot mismatch: %v", snap)
	}
}

func TestProbeWindowedAdvance(t *testing.T) {
	w := NewWindowed(4, 2)
	for i := 0; i < 8; i++ {
		w.Observe(Event{Kind: EvHit})
	}
	last, ok := w.Last()
	if !ok || last[EvHit] != 4 {
		t.Fatalf("Last = %v, %v; want 4 hits", last[EvHit], ok)
	}
	if got := len(w.History()); got != 2 {
		t.Errorf("History has %d windows, want 2", got)
	}
}

// TestProbeWindowedBothViews proves the double-count fix: with policy
// and recorder views both attached, windows advance on the recorder
// clock only, so each access is counted once per window.
func TestProbeWindowedBothViews(t *testing.T) {
	w := NewWindowed(4, 4)
	// One access = one policy-view hit + one recorder-view hit.
	// First access arrives policy-first (advances once, before the
	// recorder view is detected), after which only EvHitTemporal ticks.
	for i := 0; i < 9; i++ {
		w.Observe(Event{Kind: EvHit})
		w.Observe(Event{Kind: EvHitTemporal})
	}
	last, ok := w.Last()
	if !ok {
		t.Fatal("no completed window")
	}
	// A full window spans 4 accesses, so it holds 4 events of each view.
	if last[EvHit] != 4 || last[EvHitTemporal] != 4 {
		t.Errorf("window counts hit=%d temporal=%d, want 4 and 4", last[EvHit], last[EvHitTemporal])
	}
}

func TestProbeHistogramPercentiles(t *testing.T) {
	h := NewHistogram("test", "requests")
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
	// p50 of 1..100 is 50, whose bucket [32,64) reports its lower bound:
	// an under-estimate by at most 2× (the documented resolution).
	if got := h.Percentile(0.5); got != 32 {
		t.Errorf("p50 = %d, want bucket lower bound 32", got)
	}
	if got := h.Percentile(1); got != 64 {
		t.Errorf("p100 = %d, want bucket lower bound 64", got)
	}
	h.Record(-5) // clamps to 0
	if got := h.Percentile(0); got != 0 {
		t.Errorf("p0 after zero sample = %d, want 0", got)
	}
}

func TestProbeEventLogRing(t *testing.T) {
	l := NewEventLog(4)
	for i := 1; i <= 6; i++ {
		l.Observe(Event{Kind: EvLoad, Item: model.Item(100 + i)})
	}
	if got := l.Seq(); got != 6 {
		t.Fatalf("Seq = %d, want 6", got)
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot has %d events, want 4", len(snap))
	}
	if snap[0].Seq != 3 || snap[3].Seq != 6 {
		t.Errorf("ring kept seq %d..%d, want 3..6", snap[0].Seq, snap[3].Seq)
	}
	var sb strings.Builder
	if _, err := l.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "seq=6 kind=load item=106 block=0 n=0") {
		t.Errorf("WriteTo output unexpected:\n%s", sb.String())
	}
}

func TestProbeMissCurve(t *testing.T) {
	m := NewMissCurve(10, 8)
	for i := 0; i < 100; i++ {
		k := EvHitTemporal
		if i%4 == 0 {
			k = EvMiss
		}
		m.Observe(Event{Kind: k})
		m.Observe(Event{Kind: EvLoad}) // non-request events must not tick
	}
	pts := m.Points()
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	for _, p := range pts {
		if p.Ratio < 0.2 || p.Ratio > 0.3 {
			t.Errorf("window at seq %d has ratio %v, want ~0.25", p.Seq, p.Ratio)
		}
	}
}

// TestProbeReuseDistObserveMatchesNote: a recorder-view miss and a raw
// Note are the same reference to the probe.
func TestProbeReuseDistObserveMatchesNote(t *testing.T) {
	seqs := []model.Item{1, 2, 1, 3, 2, 1, 1, 9, 3}
	observed := NewReuseDist()
	noted := NewReuseDist()
	for _, it := range seqs {
		observed.Observe(Event{Kind: EvMiss, Item: it})
		noted.Note(it)
	}
	if o, n := observed.ColdCount(), noted.ColdCount(); o != n || o != 4 {
		t.Errorf("cold counts observed=%d noted=%d, want 4", o, n)
	}
	if o, n := observed.Hist().Count(), noted.Hist().Count(); o != n || o != 5 {
		t.Errorf("sample counts observed=%d noted=%d, want 5", o, n)
	}
	if o, n := observed.Hist().Mean(), noted.Hist().Mean(); o != n {
		t.Errorf("means diverge: observed=%v noted=%v", o, n)
	}
}

func TestProbeResidency(t *testing.T) {
	r := NewResidency()
	r.Observe(Event{Kind: EvBlockLoad, Item: 1}) // request 1
	r.Observe(Event{Kind: EvLoad, Item: 1})
	r.Observe(Event{Kind: EvHit, Item: 1}) // request 2
	r.Observe(Event{Kind: EvHit, Item: 1}) // request 3
	r.Observe(Event{Kind: EvEvict, Item: 1})
	if got := r.Hist().Count(); got != 1 {
		t.Fatalf("got %d residency samples, want 1", got)
	}
	// Loaded at request 1, evicted after request 3: resident 2 requests.
	if got := r.Hist().Mean(); got != 2 {
		t.Errorf("residency = %v requests, want 2", got)
	}
	// Evicting a never-loaded item must not record.
	r.Observe(Event{Kind: EvEvict, Item: 9})
	if got := r.Hist().Count(); got != 1 {
		t.Errorf("phantom eviction recorded a sample")
	}
	// An item far past every ID seen so far grows the table instead of
	// being dropped.
	const far = model.Item(1 << 20)
	r.Observe(Event{Kind: EvLoad, Item: far})
	r.Observe(Event{Kind: EvHit, Item: far}) // request 4
	r.Observe(Event{Kind: EvEvict, Item: far})
	if got := r.Hist().Count(); got != 2 {
		t.Errorf("item %d: got %d residency samples, want 2", far, got)
	}
}

func TestProbeSuiteSpec(t *testing.T) {
	s, err := NewSuite("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters == nil || s.Events != nil || s.Reuse != nil {
		t.Error("empty spec should be counters-only")
	}
	s, err = NewSuite("all")
	if err != nil {
		t.Fatal(err)
	}
	if s.Windowed == nil || s.Events == nil || s.Reuse == nil ||
		s.Gaps == nil || s.Residency == nil || s.Curve == nil {
		t.Error("spec 'all' should enable every probe")
	}
	s, err = NewSuite("events=8, misscurve=100")
	if err != nil {
		t.Fatal(err)
	}
	if s.Events == nil || s.Curve == nil || s.Curve.Window() != 100 {
		t.Error("valued spec entries not honored")
	}
	for _, bad := range []string{"bogus", "events=x", "window=-1"} {
		if _, err := NewSuite(bad); err == nil {
			t.Errorf("spec %q should be rejected", bad)
		}
	}
}

func TestProbeSuiteWriteTo(t *testing.T) {
	s, err := NewSuite("all")
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(Event{Kind: EvMiss, Item: 3})
	s.Observe(Event{Kind: EvBlockLoad, Item: 3, N: 8})
	s.Observe(Event{Kind: EvHitSpatial, Item: 4})
	var sb strings.Builder
	if _, err := s.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"event counters", "block-load", "reuse distance", "inter-miss gap", "recent events"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite dump missing %q:\n%s", want, out)
		}
	}
}
