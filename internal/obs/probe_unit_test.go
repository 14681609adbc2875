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
	for _, k := range []Kind{EvHit, EvHitItemLayer, EvHitBlockLayer, EvBlockLoad} {
		if !(&Record{Kind: k}).access() {
			t.Errorf("%v should be an access kind", k)
		}
	}
	for _, k := range []Kind{EvMark, EvPhaseReset, EvLayerResize} {
		if (&Record{Kind: k}).access() {
			t.Errorf("%v should be a lifecycle kind", k)
		}
	}
}

// items returns n consecutive items from first.
func items(first model.Item, n int) []model.Item {
	out := make([]model.Item, n)
	for i := range out {
		out[i] = first + model.Item(i)
	}
	return out
}

// TestProbeCounters: an access counts under its kind and its class and
// its lists under load and evict; a lifecycle record counts once, its
// zero Class under nothing.
func TestProbeCounters(t *testing.T) {
	var c Counters
	c.Observe(&Record{Kind: EvHit, Class: EvHitTemporal})
	c.Observe(&Record{Kind: EvHitItemLayer, Class: EvHitSpatial})
	c.Observe(&Record{Kind: EvHitBlockLayer, Class: EvHitTemporal, Evicted: items(40, 1)})
	c.Observe(&Record{Kind: EvBlockLoad, Class: EvMiss, Loaded: items(0, 8), Evicted: items(50, 2)})
	c.Observe(&Record{Kind: EvBlockLoad, Class: EvMiss, Loaded: items(8, 3)})
	c.Observe(&Record{Kind: EvLayerResize, N: 5, Evicted: items(60, 2)})
	c.Observe(&Record{Kind: EvMark, Item: 4})
	for k, want := range map[Kind]int64{
		EvHit: 1, EvHitItemLayer: 1, EvHitBlockLayer: 1, EvBlockLoad: 2,
		EvHitTemporal: 2, EvHitSpatial: 1, EvMiss: 2,
		EvLoad: 11, EvEvict: 5, EvLayerResize: 1, EvMark: 1, EvPhaseReset: 0,
	} {
		if got := c.Get(k); got != want {
			t.Errorf("%v = %d, want %d", k, got, want)
		}
	}
	if got := c.ItemsLoaded(); got != 11 {
		t.Errorf("ItemsLoaded = %d, want 11", got)
	}
	if snap := c.Snapshot(); snap[EvHit] != 1 || snap[EvBlockLoad] != 2 {
		t.Errorf("snapshot mismatch: %v", snap)
	}
}

func TestProbeWindowedAdvance(t *testing.T) {
	w := NewWindowed(4, 2)
	for i := 0; i < 8; i++ {
		w.Observe(&Record{Kind: EvHit, Class: EvHitTemporal})
		w.Observe(&Record{Kind: EvMark, Item: model.Item(i)}) // lifecycle records do not tick
	}
	last, ok := w.Last()
	if !ok || last[EvHit] != 4 || last[EvHitTemporal] != 4 || last[EvMark] != 4 {
		t.Fatalf("Last = hit %d, temporal %d, mark %d, %v; want 4 each", last[EvHit], last[EvHitTemporal], last[EvMark], ok)
	}
	if got := len(w.History()); got != 2 {
		t.Errorf("History has %d windows, want 2", got)
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
	for i := 1; i <= 5; i++ {
		l.Observe(&Record{Kind: EvBlockLoad, Class: EvMiss, Item: model.Item(100 + i), Loaded: items(100, i)})
	}
	l.Observe(&Record{Kind: EvLayerResize, N: 7, Evicted: items(0, 3)})
	if got := l.Seq(); got != 6 {
		t.Fatalf("Seq = %d, want 6", got)
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot has %d records, want 4", len(snap))
	}
	if snap[0].Seq != 3 || snap[3].Seq != 6 {
		t.Errorf("ring kept seq %d..%d, want 3..6", snap[0].Seq, snap[3].Seq)
	}
	var sb strings.Builder
	if _, err := l.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"seq=5 kind=block-load class=miss item=105 loaded=5 evicted=0\n",
		"seq=6 kind=layer-resize item=0 n=7 evicted=3\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("WriteTo output lacks %q:\n%s", want, sb.String())
		}
	}
}

func TestProbeMissCurve(t *testing.T) {
	m := NewMissCurve(10, 8)
	for i := 0; i < 100; i++ {
		r := Record{Kind: EvHit, Class: EvHitTemporal}
		if i%4 == 0 {
			r = Record{Kind: EvBlockLoad, Class: EvMiss}
		}
		m.Observe(&r)
		m.Observe(&Record{Kind: EvPhaseReset}) // lifecycle records must not tick
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

// TestProbeReuseDistObserveMatchesNote: an access record and a raw
// Note are the same reference to the probe.
func TestProbeReuseDistObserveMatchesNote(t *testing.T) {
	seqs := []model.Item{1, 2, 1, 3, 2, 1, 1, 9, 3}
	observed := NewReuseDist()
	noted := NewReuseDist()
	for _, it := range seqs {
		observed.Observe(&Record{Kind: EvBlockLoad, Class: EvMiss, Item: it})
		observed.Observe(&Record{Kind: EvMark, Item: it}) // not a reference
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
	r.Observe(&Record{Kind: EvBlockLoad, Class: EvMiss, Item: 1, Loaded: items(1, 1)}) // request 1
	r.Observe(&Record{Kind: EvHit, Class: EvHitTemporal, Item: 1})                     // request 2
	r.Observe(&Record{Kind: EvHit, Class: EvHitTemporal, Item: 1})                     // request 3
	r.Observe(&Record{Kind: EvLayerResize, Evicted: items(1, 1)})
	if got := r.Hist().Count(); got != 1 {
		t.Fatalf("got %d residency samples, want 1", got)
	}
	// Loaded at request 1, evicted after request 3: resident 2 requests.
	if got := r.Hist().Mean(); got != 2 {
		t.Errorf("residency = %v requests, want 2", got)
	}
	// Evicting a never-loaded item must not record.
	r.Observe(&Record{Kind: EvLayerResize, Evicted: items(9, 1)})
	if got := r.Hist().Count(); got != 1 {
		t.Errorf("phantom eviction recorded a sample")
	}
	// An item far past every ID seen so far grows the table instead of
	// being dropped.
	const far = model.Item(1 << 20)
	r.Observe(&Record{Kind: EvBlockLoad, Class: EvMiss, Item: far, Loaded: items(far, 1)}) // request 4
	r.Observe(&Record{Kind: EvHit, Class: EvHitTemporal, Item: far})                       // request 5
	r.Observe(&Record{Kind: EvHit, Class: EvHitTemporal, Item: 2, Evicted: items(far, 1)}) // request 6
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
	s.Observe(&Record{Kind: EvBlockLoad, Class: EvMiss, Item: 3, Loaded: items(0, 8)})
	s.Observe(&Record{Kind: EvHit, Class: EvHitSpatial, Item: 4})
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
