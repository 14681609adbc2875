package conformance

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/policy"
)

// accessStreamHash replays tr through c and returns the FNV-64a hash of
// every Access result in order: Hit, then Loaded and Evicted exactly as
// listed. Any change to a decision or to the order of either list
// changes it. With evictedAsSet, each Evicted list is hashed sorted.
func accessStreamHash(c cachesim.Cache, tr []model.Item, evictedAsSet bool) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, it := range tr {
		a := c.Access(it)
		loaded, evicted := a.Loaded(), a.Evicted()
		if evictedAsSet {
			evicted = slices.Clone(evicted)
			slices.Sort(evicted)
		}
		buf = buf[:0]
		if a.Hit {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(loaded)))
		for _, x := range loaded {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(evicted)))
		for _, x := range evicted {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// goldenTrace mixes random jumps, short-range revisits and runs within
// the current item's block under g, over item IDs [0, universe).
func goldenTrace(rng *rand.Rand, g model.Geometry, universe, length int) []model.Item {
	tr := make([]model.Item, 0, length)
	cur := model.Item(rng.Intn(universe))
	var sibs []model.Item
	for len(tr) < length {
		switch rng.Intn(4) {
		case 0:
			cur = model.Item(rng.Intn(universe))
			tr = append(tr, cur)
		case 1:
			back := min(len(tr), 32)
			if back > 0 {
				cur = tr[len(tr)-1-rng.Intn(back)]
			}
			tr = append(tr, cur)
		default:
			sibs = model.AppendItemsOf(g, sibs[:0], g.BlockOf(cur))
			for n := rng.Intn(len(sibs)) + 1; n > 0 && len(tr) < length; n-- {
				cur = sibs[rng.Intn(len(sibs))]
				tr = append(tr, cur)
			}
		}
	}
	return tr
}

// unevenTable partitions a shuffled [0, universe) into blocks of 1–12
// items, leaving the last 5% of the shuffle undeclared (singleton
// pseudo-blocks), so item IDs say nothing about offsets.
func unevenTable(rng *rand.Rand, universe int) *model.Table {
	perm := rng.Perm(universe)
	declared := perm[:universe-universe/20]
	var blocks [][]model.Item
	for len(declared) > 0 {
		n := min(len(declared), 1+rng.Intn(12))
		blk := make([]model.Item, n)
		for i, x := range declared[:n] {
			blk[i] = model.Item(x)
		}
		blocks = append(blocks, blk)
		declared = declared[n:]
	}
	return model.MustTable(blocks)
}

// goldenShape is one geometry and sizing: k sizes the single-capacity
// policies, (i, b) the IBLP family's layers.
type goldenShape struct {
	name     string
	geo      model.Geometry
	k, i, b  int
	universe int
}

func goldenShapes() []goldenShape {
	rng := rand.New(rand.NewSource(16))
	return []goldenShape{
		{name: "fixed8", geo: model.NewFixed(8), k: 64, i: 32, b: 32, universe: 1024},
		// b < B truncates every IBLP block copy; k < B every BlockLRU load.
		{name: "fixed8-trunc", geo: model.NewFixed(8), k: 6, i: 12, b: 4, universe: 256},
		{name: "fixed64", geo: model.NewFixed(64), k: 512, i: 256, b: 256, universe: 8192},
		{name: "fixed64-trunc", geo: model.NewFixed(64), k: 48, i: 96, b: 32, universe: 2048},
		// i = 0: a pure block layer, one truncated copy at a time.
		{name: "fixed64-i0", geo: model.NewFixed(64), k: 40, i: 0, b: 40, universe: 2048},
		{name: "fixed128", geo: model.NewFixed(128), k: 512, i: 256, b: 256, universe: 8192},
		{name: "fixed128-trunc", geo: model.NewFixed(128), k: 100, i: 160, b: 96, universe: 4096},
		{name: "table", geo: unevenTable(rng, 1024), k: 48, i: 24, b: 24, universe: 1024},
		{name: "table-trunc", geo: unevenTable(rng, 512), k: 8, i: 8, b: 6, universe: 512},
	}
}

// goldenPolicies builds every block-loading policy for shape s; layer
// splits a constructor rejects are left out.
func goldenPolicies(s goldenShape) map[string]func() cachesim.Cache {
	g, k, i, b, u := s.geo, s.k, s.i, s.b, s.universe
	m := map[string]func() cachesim.Cache{
		"iblp":             func() cachesim.Cache { return core.NewIBLP(i, b, g) },
		"iblp-dense":       func() cachesim.Cache { return core.NewIBLPBounded(i, b, g, u) },
		"iblp-promote-all": func() cachesim.Cache { return core.NewIBLPPromoteAll(i, b, g) },
		"block-lru":        func() cachesim.Cache { return policy.NewBlockLRU(k, g) },
		"block-lru-dense":  func() cachesim.Cache { return policy.NewBlockLRUBounded(k, g, u) },
		"athresh-1":        func() cachesim.Cache { return policy.NewBlockLoadItemEvict(k, g) },
		"athresh-2":        func() cachesim.Cache { return policy.NewAThreshold(k, 2, g) },
		"adaptive-iblp":    func() cachesim.Cache { return core.NewAdaptiveIBLP(k, g) },
		"gcm":              func() cachesim.Cache { return core.NewGCM(k, g, 5) },
		"gcm-dense":        func() cachesim.Cache { return core.NewGCMBounded(k, g, 5, u) },
	}
	if g.BlockSize() <= 64 {
		m["footprint"] = func() cachesim.Cache { return policy.NewFootprint(k, g) }
	}
	if i >= 1 {
		m["iblp-exclusive"] = func() cachesim.Cache { return core.NewIBLPExclusive(i, b, g) }
	}
	if b >= 1 {
		m["iblp-inclusive"] = func() cachesim.Cache { return core.NewIBLPInclusive(i, b, g) }
	}
	return m
}

// netOrderGolden holds accessStreamHash values recorded while every
// block-loading policy still netted its lists through a separate
// reconciliation pass after the access. Reporting net changes as they
// happen must keep each list's order exactly. Dense and generic paths
// hash differently in some shapes: a truncated block copy reports its
// evictions in geometry order on the dense path and in admission order
// on the generic path. IBLPExclusive lists a dropped block's items in
// map iteration order, so its Evicted lists are pinned as sets.
var netOrderGolden = map[string]uint64{
	"fixed128-trunc/adaptive-iblp":    0x287f4ba28aae2916,
	"fixed128-trunc/athresh-1":        0xe5220a0062f75b,
	"fixed128-trunc/athresh-2":        0x534aa8ed1afe256d,
	"fixed128-trunc/block-lru":        0xc73b3a255e5c154c,
	"fixed128-trunc/block-lru-dense":  0xedfc62a77a8ce478,
	"fixed128-trunc/gcm":              0xd63db74e3474b826,
	"fixed128-trunc/gcm-dense":        0xd63db74e3474b826,
	"fixed128-trunc/iblp":             0x40a48ef14dc2c0ce,
	"fixed128-trunc/iblp-dense":       0x40a48ef14dc2c0ce,
	"fixed128-trunc/iblp-exclusive":   0x98112e7ea4d21fc,
	"fixed128-trunc/iblp-inclusive":   0x6f366a4ac7c0936e,
	"fixed128-trunc/iblp-promote-all": 0x40a48ef14dc2c0ce,
	"fixed128/adaptive-iblp":          0x71dace3739cd6dc6,
	"fixed128/athresh-1":              0xb5a7402b81535edf,
	"fixed128/athresh-2":              0x8c7562f75eedc02a,
	"fixed128/block-lru":              0xbf5b3cf6b688b759,
	"fixed128/block-lru-dense":        0xbf5b3cf6b688b759,
	"fixed128/gcm":                    0xa57b3520ee3595fe,
	"fixed128/gcm-dense":              0xa57b3520ee3595fe,
	"fixed128/iblp":                   0x5416f5f55ede89fb,
	"fixed128/iblp-dense":             0x5416f5f55ede89fb,
	"fixed128/iblp-exclusive":         0x5ba020d228f68cd9,
	"fixed128/iblp-inclusive":         0x8f218236a7e59996,
	"fixed128/iblp-promote-all":       0xcadb6f63cfb76c1b,
	"fixed64-i0/adaptive-iblp":        0xdbb276384074139f,
	"fixed64-i0/athresh-1":            0xacd72be707f0b3af,
	"fixed64-i0/athresh-2":            0x3ce8e00f773b02f6,
	"fixed64-i0/block-lru":            0xe5af35a52a611150,
	"fixed64-i0/block-lru-dense":      0x279ce0ee6f53be5c,
	"fixed64-i0/footprint":            0xf691a702286f2030,
	"fixed64-i0/gcm":                  0xcfd2e70fca2fb67d,
	"fixed64-i0/gcm-dense":            0xcfd2e70fca2fb67d,
	"fixed64-i0/iblp":                 0xe5af35a52a611150,
	"fixed64-i0/iblp-dense":           0x279ce0ee6f53be5c,
	"fixed64-i0/iblp-inclusive":       0xe5af35a52a611150,
	"fixed64-i0/iblp-promote-all":     0xe5af35a52a611150,
	"fixed64-trunc/adaptive-iblp":     0xc41db212299cab5d,
	"fixed64-trunc/athresh-1":         0x5a159d3eece71e87,
	"fixed64-trunc/athresh-2":         0xb71715ed56fdcf83,
	"fixed64-trunc/block-lru":         0x216778e93e9754b6,
	"fixed64-trunc/block-lru-dense":   0xef91344279da2ba,
	"fixed64-trunc/footprint":         0x1ea08d3f5e5c8a7d,
	"fixed64-trunc/gcm":               0x4a362cded2a26e66,
	"fixed64-trunc/gcm-dense":         0x4a362cded2a26e66,
	"fixed64-trunc/iblp":              0xefa1d36d79faaa95,
	"fixed64-trunc/iblp-dense":        0xefa1d36d79faaa95,
	"fixed64-trunc/iblp-exclusive":    0x9f75cc205a013c19,
	"fixed64-trunc/iblp-inclusive":    0x38ab98cdb71fe25a,
	"fixed64-trunc/iblp-promote-all":  0xefa1d36d79faaa95,
	"fixed64/adaptive-iblp":           0xd63559607a7a8cd,
	"fixed64/athresh-1":               0x32af82b01adea9b4,
	"fixed64/athresh-2":               0x7748bdc398f0d9f4,
	"fixed64/block-lru":               0xd808e8f158230ca2,
	"fixed64/block-lru-dense":         0xd808e8f158230ca2,
	"fixed64/footprint":               0xe3f3d7930a1bd836,
	"fixed64/gcm":                     0x25ed8c70fc2d5229,
	"fixed64/gcm-dense":               0x25ed8c70fc2d5229,
	"fixed64/iblp":                    0x5bac2635a0cbc5ad,
	"fixed64/iblp-dense":              0x5bac2635a0cbc5ad,
	"fixed64/iblp-exclusive":          0xda2d3842997f79bd,
	"fixed64/iblp-inclusive":          0x10dc4e3e021a8444,
	"fixed64/iblp-promote-all":        0x2f745e0799e82e14,
	"fixed8-trunc/adaptive-iblp":      0x4a87c7004318cdc3,
	"fixed8-trunc/athresh-1":          0xa9be2092052b4668,
	"fixed8-trunc/athresh-2":          0x9641c42d3540bd9c,
	"fixed8-trunc/block-lru":          0x81b1d7664b5a0827,
	"fixed8-trunc/block-lru-dense":    0x321304273871a127,
	"fixed8-trunc/footprint":          0x97748968ad4de79a,
	"fixed8-trunc/gcm":                0xba06abb4e1b1716b,
	"fixed8-trunc/gcm-dense":          0xba06abb4e1b1716b,
	"fixed8-trunc/iblp":               0x1476b1533b46ea47,
	"fixed8-trunc/iblp-dense":         0x1476b1533b46ea47,
	"fixed8-trunc/iblp-exclusive":     0x22115b13324c0ce8,
	"fixed8-trunc/iblp-inclusive":     0xfd0c2038892e7268,
	"fixed8-trunc/iblp-promote-all":   0x1476b1533b46ea47,
	"fixed8/adaptive-iblp":            0xf699693bb03bed6e,
	"fixed8/athresh-1":                0x20d06500e909c369,
	"fixed8/athresh-2":                0x28a172861003b8dd,
	"fixed8/block-lru":                0xb15eefa918e6828c,
	"fixed8/block-lru-dense":          0xb15eefa918e6828c,
	"fixed8/footprint":                0xd7ce42b721a64fd9,
	"fixed8/gcm":                      0x3c59891b43eaa178,
	"fixed8/gcm-dense":                0x3c59891b43eaa178,
	"fixed8/iblp":                     0xdc8ee199b38393d5,
	"fixed8/iblp-dense":               0xdc8ee199b38393d5,
	"fixed8/iblp-exclusive":           0x3efaa0e44827ea4,
	"fixed8/iblp-inclusive":           0xfac8260e813bb015,
	"fixed8/iblp-promote-all":         0xa6e8485e0cbad4d9,
	"table-trunc/adaptive-iblp":       0xca4a51cb7954f590,
	"table-trunc/athresh-1":           0xe456fae318ff56dd,
	"table-trunc/athresh-2":           0x1e4472818147418b,
	"table-trunc/block-lru":           0x4be33dcc2f9a17ba,
	"table-trunc/block-lru-dense":     0x41b1954da134514a,
	"table-trunc/footprint":           0x6ece545b5bb54bfd,
	"table-trunc/gcm":                 0x10815ae90b24fb30,
	"table-trunc/gcm-dense":           0x10815ae90b24fb30,
	"table-trunc/iblp":                0xd9af34bd4a249b0c,
	"table-trunc/iblp-dense":          0x30958bfec0f09a2c,
	"table-trunc/iblp-exclusive":      0xb0a5a3c9cbbbed6e,
	"table-trunc/iblp-inclusive":      0xf56e97c6cc6630f9,
	"table-trunc/iblp-promote-all":    0xd9af34bd4a249b0c,
	"table/adaptive-iblp":             0x625b8fc4389f150d,
	"table/athresh-1":                 0xa5afeb2777013269,
	"table/athresh-2":                 0x9f9a51b76d7ee7f5,
	"table/block-lru":                 0x93db7e87bc31de8e,
	"table/block-lru-dense":           0x93db7e87bc31de8e,
	"table/footprint":                 0x8826bcf83b0e029e,
	"table/gcm":                       0xfe036e7f1a7bbc98,
	"table/gcm-dense":                 0xfe036e7f1a7bbc98,
	"table/iblp":                      0x98579114c3f2be98,
	"table/iblp-dense":                0x98579114c3f2be98,
	"table/iblp-exclusive":            0xead299bdbb9e98dd,
	"table/iblp-inclusive":            0x98af9ba4cc29441,
	"table/iblp-promote-all":          0x43858229ad88d54d,
}

// TestNetChangeOrderGolden pins the decisions and the exact Loaded and
// Evicted order of every block-loading policy, on both representations,
// over full and truncating Fixed shapes (B = 8, 64, 128) and uneven
// Table geometries.
func TestNetChangeOrderGolden(t *testing.T) {
	for si, s := range goldenShapes() {
		tr := goldenTrace(rand.New(rand.NewSource(int64(300+si))), s.geo, s.universe, 20000)
		for pname, mk := range goldenPolicies(s) {
			name := fmt.Sprintf("%s/%s", s.name, pname)
			got := accessStreamHash(mk(), tr, pname == "iblp-exclusive")
			want, ok := netOrderGolden[name]
			if !ok {
				t.Errorf("%q: %#x, // no golden hash", name, got)
				continue
			}
			if got != want {
				t.Errorf("%s: access-stream hash %#x, golden %#x", name, got, want)
			}
		}
	}
}
