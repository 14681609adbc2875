package cachesim

import "testing"

func TestStatsCodecRoundTrip(t *testing.T) {
	in := []Stats{
		{Policy: "lru", Accesses: 100, Hits: 60, Misses: 40, SpatialHits: 10,
			TemporalHits: 50, ItemsLoaded: 45, Evictions: 30},
		{Policy: "", Accesses: -1},
		{Policy: "gcm/k=32"},
	}
	var enc []byte
	for _, s := range in {
		enc = AppendStats(enc, s)
	}
	rest := enc
	for i, want := range in {
		var got Stats
		var err error
		got, rest, err = DecodeStats(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes", len(rest))
	}
	// Truncations error out, never panic.
	for n := 0; n < len(enc); n++ {
		rest := enc[:n]
		for len(rest) > 0 {
			var err error
			if _, rest, err = DecodeStats(rest); err != nil {
				break
			}
		}
	}
}
