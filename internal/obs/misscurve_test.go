package obs

import (
	"strings"
	"testing"
)

// feedCurve drives n access records into m, every missEvery-th one a
// miss (missEvery = 1 makes every request miss), and returns the number
// of misses fed.
func feedCurve(m *MissCurve, n, missEvery int) int64 {
	var misses int64
	for i := 0; i < n; i++ {
		r := Record{Kind: EvHit, Class: EvHitTemporal}
		if missEvery > 0 && i%missEvery == 0 {
			r = Record{Kind: EvBlockLoad, Class: EvMiss}
			misses++
		}
		m.Observe(&r)
	}
	return misses
}

// TestMissCurveSnapshotBoundaries pins the trailing-window flush at the
// window boundaries: a run shorter than one window must still report a
// (partial) point, an exact multiple must report only completed points,
// and one request past the boundary must add a width-1 partial tail.
func TestMissCurveSnapshotBoundaries(t *testing.T) {
	const W = 8
	cases := []struct {
		name        string
		requests    int
		wantPoints  int // Snapshot length
		wantPartial bool
		wantTailW   int64 // Width of the last point, if any
	}{
		{name: "empty", requests: 0, wantPoints: 0},
		{name: "W-1", requests: W - 1, wantPoints: 1, wantPartial: true, wantTailW: W - 1},
		{name: "W", requests: W, wantPoints: 1, wantPartial: false, wantTailW: W},
		{name: "W+1", requests: W + 1, wantPoints: 2, wantPartial: true, wantTailW: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMissCurve(W, 16)
			feedCurve(m, tc.requests, 2)
			snap := m.Snapshot()
			if len(snap) != tc.wantPoints {
				t.Fatalf("Snapshot() has %d points, want %d", len(snap), tc.wantPoints)
			}
			if tc.wantPoints == 0 {
				return
			}
			tail := snap[len(snap)-1]
			if tail.Partial != tc.wantPartial {
				t.Errorf("tail.Partial = %v, want %v", tail.Partial, tc.wantPartial)
			}
			if tail.Width != tc.wantTailW {
				t.Errorf("tail.Width = %d, want %d", tail.Width, tc.wantTailW)
			}
			if tail.Seq != int64(tc.requests) {
				t.Errorf("tail.Seq = %d, want %d", tail.Seq, tc.requests)
			}
			// Completed points never carry the partial flag, and Points()
			// keeps excluding the in-progress window.
			for _, p := range snap[:len(snap)-1] {
				if p.Partial {
					t.Errorf("completed point at seq %d marked partial", p.Seq)
				}
			}
			wantCompleted := tc.requests / W
			if got := len(m.Points()); got != wantCompleted {
				t.Errorf("Points() has %d points, want %d completed", got, wantCompleted)
			}
		})
	}
}

// TestMissCurveSnapshotAccountsEveryRequest checks that completed plus
// partial points cover exactly the requests and misses fed, for widths
// around the boundary — the accounting the pre-fix curve lost.
func TestMissCurveSnapshotAccountsEveryRequest(t *testing.T) {
	const W = 10
	for _, n := range []int{0, 1, W - 1, W, W + 1, 3*W - 1, 3 * W, 3*W + 7} {
		m := NewMissCurve(W, 64)
		fed := feedCurve(m, n, 3)
		var gotReq, gotMiss int64
		for _, p := range m.Snapshot() {
			gotReq += p.Width
			gotMiss += p.Misses
		}
		if gotReq != int64(n) || gotMiss != fed {
			t.Errorf("n=%d: snapshot covers %d requests / %d misses, want %d / %d",
				n, gotReq, gotMiss, n, fed)
		}
	}
}

func TestMissCurveReset(t *testing.T) {
	const W = 8
	m := NewMissCurve(W, 4)
	feedCurve(m, 3*W+W/2, 1)
	if len(m.Snapshot()) == 0 {
		t.Fatal("sanity: snapshot empty before reset")
	}
	m.Reset()
	if got := m.Snapshot(); len(got) != 0 {
		t.Fatalf("after Reset, Snapshot() = %v, want empty", got)
	}
	if got := m.Points(); len(got) != 0 {
		t.Fatalf("after Reset, Points() = %v, want empty", got)
	}
	// The curve is reusable after Reset: sequence numbers restart and a
	// fresh partial window accumulates from zero.
	feedCurve(m, W/2, 1)
	snap := m.Snapshot()
	if len(snap) != 1 || !snap[0].Partial || snap[0].Seq != int64(W/2) || snap[0].Misses != int64(W/2) {
		t.Fatalf("after Reset+refeed, Snapshot() = %+v, want one partial point at seq %d", snap, W/2)
	}
}

func TestMissCurveTableShowsPartial(t *testing.T) {
	m := NewMissCurve(8, 4)
	feedCurve(m, 11, 1)
	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(partial)") {
		t.Errorf("rendered table misses the partial tail:\n%s", sb.String())
	}
}
