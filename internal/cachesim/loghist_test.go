package cachesim

import (
	"testing"

	"gccache/internal/model"
	"gccache/internal/obs"
)

// TestLogHistCeilRank pins the Recorder's streaming MissGap/LoadBurst
// percentiles to the same ceil-rank (nearest-rank) convention as
// obs.Histogram, so the recorder's percentiles and an attached histogram
// probe agree on identical data. Both recorder paths run the same
// stream: inter-miss gaps 1, 2, 4 and load bursts 1, 2, 4.
func TestLogHistCeilRank(t *testing.T) {
	for _, tc := range []struct {
		name     string
		universe int
	}{{"map", 0}, {"bounded", 16}} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRecorder("p", tc.universe)
			if got := r.MissGapPercentile(0.5); got != 0 {
				t.Errorf("empty MissGap p50 = %d, want 0", got)
			}
			if got := r.LoadBurstPercentile(0.5); got != 0 {
				t.Errorf("empty LoadBurst p50 = %d, want 0", got)
			}
			hit := Access{Hit: true}
			r.Observe(0, Access{net: &Net{Loaded: []model.Item{0}}}) // gap 1, burst 1
			r.Observe(0, hit)
			r.Observe(1, Access{net: &Net{Loaded: []model.Item{1, 2}}}) // gap 2, burst 2
			r.Observe(1, hit)
			r.Observe(1, hit)
			r.Observe(1, hit)
			r.Observe(4, Access{net: &Net{Loaded: []model.Item{4, 5, 6, 7}}}) // gap 4, burst 4

			ref := obs.NewHistogram("ref", "accesses")
			for _, v := range []int64{1, 2, 4} {
				ref.Record(v)
			}
			// p50 of 3 samples is the 2nd smallest (rank ceil(1.5) = 2):
			// value 2, whose log₂ bucket reports its lower bound 2. The
			// floor-rank bug returned 1.
			for _, c := range []struct {
				q    float64
				want int64
			}{{0, 1}, {0.33, 1}, {0.34, 2}, {0.5, 2}, {0.99, 4}, {1, 4}} {
				if got := r.MissGapPercentile(c.q); got != c.want {
					t.Errorf("MissGap q=%v = %d, want %d", c.q, got, c.want)
				}
				if got := r.LoadBurstPercentile(c.q); got != c.want {
					t.Errorf("LoadBurst q=%v = %d, want %d", c.q, got, c.want)
				}
				if got := ref.Percentile(c.q); got != c.want {
					t.Errorf("obs.Histogram q=%v = %d, want %d", c.q, got, c.want)
				}
			}
			if got, want := r.MissGapMean(), 7.0/3; got != want {
				t.Errorf("MissGapMean = %v, want %v", got, want)
			}
			if got, want := r.LoadBurstMean(), ref.Mean(); got != want {
				t.Errorf("LoadBurstMean = %v, obs.Histogram mean %v", got, want)
			}

			r.Reset("p")
			if got := r.MissGapPercentile(0.5); got != 0 {
				t.Errorf("MissGap p50 after Reset = %d, want 0", got)
			}
		})
	}
}
