package cachesim

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gccache/internal/model"
)

// TestChangesNetsWithinTheRequestedBlock drives Changes with scripted
// loads and evictions, including sequences no policy produces today,
// under a Fixed and an uneven Table geometry. In a script, a digit is
// the item at that offset of the requested block and f an item outside
// it; L loads, E evicts.
func TestChangesNetsWithinTheRequestedBlock(t *testing.T) {
	geos := map[string]struct {
		g     model.Geometry
		block []model.Item // the requested block, block 0
		f     model.Item
	}{
		"fixed": {model.NewFixed(8), []model.Item{0, 1, 2}, 20},
		"table": {model.MustTable([][]model.Item{{40, 7, 90}, {3}}), []model.Item{40, 7, 90}, 3},
	}
	cases := []struct{ script, loaded, evicted string }{
		{"L0 L1 Ef", "0 1", "f"},
		{"E1 L0 L1", "0", ""},       // evicted, then loaded back
		{"L0 E1 L1 E1", "0", "1"},   // evict, load, evict: first listing
		{"L0 L1 E1", "0", ""},       // loaded, then evicted
		{"L1 E1 L0 L1", "0 1", ""},  // load, evict, load: last listing
		{"E2 Ef L2 E0", "", "f 0"},  // a cancelled pair amid other evictions
		{"E0 E1 L1 L0 E0", "", "0"}, // two cancellations, one undone
		{"Ef L0 E2 L2 E1", "0", "f 1"},
	}
	for gname, geo := range geos {
		item := func(tok string) model.Item {
			if tok == "f" {
				return geo.f
			}
			return geo.block[tok[0]-'0']
		}
		list := func(s string) []model.Item {
			out := []model.Item{}
			for _, tok := range strings.Fields(s) {
				out = append(out, item(tok))
			}
			return out
		}
		for _, tc := range cases {
			c := NewChanges(geo.g)
			c.Begin(0)
			for _, op := range strings.Fields(tc.script) {
				if op[0] == 'L' {
					c.Load(item(op[1:]))
				} else {
					c.Evict(item(op[1:]))
				}
			}
			a := c.Miss()
			if !slices.Equal(a.Loaded(), list(tc.loaded)) || !slices.Equal(a.Evicted(), list(tc.evicted)) {
				t.Errorf("%s %q: Loaded %v Evicted %v, want %v and %v",
					gname, tc.script, a.Loaded(), a.Evicted(), list(tc.loaded), list(tc.evicted))
			}
			// A Reset access opens no block, so what the script left in
			// the masks must not net its evictions.
			c.Reset()
			c.Evict(geo.block[1])
			if got := c.Hit().Evicted(); !slices.Equal(got, list("1")) {
				t.Errorf("%s %q: after Reset Evicted %v, want %v", gname, tc.script, got, list("1"))
			}
		}
	}
}

// TestChangesBitsMatchPerItem: LoadBits and EvictBits list exactly what
// one Load or Evict per set bit, in ascending ID order, lists. Random
// valid sequences (an item loads only while absent and leaves only
// while present) move words of the open block and of other blocks,
// under Fixed geometries whose blocks fill, straddle and span words.
func TestChangesBitsMatchPerItem(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, B := range []int{8, 48, 64, 100, 128} {
		g := model.NewFixed(B)
		words, items := NewChanges(g), NewChanges(g)
		present := map[model.Item]bool{}
		for trial := 0; trial < 2000; trial++ {
			open := model.Block(rng.Intn(6))
			words.Begin(open)
			items.Begin(open)
			for op := rng.Intn(12); op > 0; op-- {
				blk := open
				if rng.Intn(2) == 0 {
					blk = model.Block(rng.Intn(6))
				}
				off := rng.Intn((B+63)/64) * 64
				id := uint64(blk)*uint64(B) + uint64(off)
				n := min(B-off, 64)
				load := rng.Intn(2) == 0
				var m uint64
				for j := 0; j < n; j++ {
					if present[model.Item(id+uint64(j))] != load && rng.Intn(3) != 0 {
						m |= 1 << j
					}
				}
				if load {
					words.LoadBits(id, m)
				} else {
					words.EvictBits(id, m)
				}
				for r := m; r != 0; r &= r - 1 {
					x := model.Item(id + uint64(bits.TrailingZeros64(r)))
					present[x] = load
					if load {
						items.Load(x)
					} else {
						items.Evict(x)
					}
				}
			}
			w, i := words.Miss(), items.Miss()
			if !slices.Equal(w.Loaded(), i.Loaded()) || !slices.Equal(w.Evicted(), i.Evicted()) {
				t.Fatalf("B=%d trial %d: bits listed %v and %v, items %v and %v",
					B, trial, w.Loaded(), w.Evicted(), i.Loaded(), i.Evicted())
			}
		}
	}
}
