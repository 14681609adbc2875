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
		// B = 48 and 100: blocks that straddle 64-bit words of a bitset.
		{name: "fixed48", geo: model.NewFixed(48), k: 384, i: 192, b: 192, universe: 6144},
		{name: "fixed48-trunc", geo: model.NewFixed(48), k: 40, i: 72, b: 36, universe: 1536},
		{name: "fixed100", geo: model.NewFixed(100), k: 800, i: 400, b: 400, universe: 12800},
	}
}

// goldenPolicies builds every block-loading policy for shape s, plus
// the item-granularity ItemLRU, FIFO, Clock, Marking and RandomEvict;
// layer splits a constructor rejects are left out.
func goldenPolicies(s goldenShape) map[string]func() cachesim.Cache {
	g, k, i, b := s.geo, s.k, s.i, s.b
	m := map[string]func() cachesim.Cache{
		"item-lru":         func() cachesim.Cache { return policy.NewItemLRU(k) },
		"fifo":             func() cachesim.Cache { return policy.NewFIFO(k) },
		"clock":            func() cachesim.Cache { return policy.NewClock(k) },
		"marking":          func() cachesim.Cache { return policy.NewMarking(k, 5) },
		"random":           func() cachesim.Cache { return policy.NewRandomEvict(k, 5) },
		"iblp":             func() cachesim.Cache { return core.NewIBLP(i, b, g) },
		"iblp-promote-all": func() cachesim.Cache { return core.NewIBLPPromoteAll(i, b, g) },
		"block-lru":        func() cachesim.Cache { return policy.NewBlockLRU(k, g) },
		"athresh-1":        func() cachesim.Cache { return policy.NewBlockLoadItemEvict(k, g) },
		"athresh-2":        func() cachesim.Cache { return policy.NewAThreshold(k, 2, g) },
		"adaptive-iblp":    func() cachesim.Cache { return core.NewAdaptiveIBLP(k, g) },
		"gcm":              func() cachesim.Cache { return core.NewGCM(k, g, 5) },
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

// netOrderGolden holds accessStreamHash values, each list hashed in the
// order the policy reports it. Most were recorded while every
// block-loading policy still netted its lists through a separate
// reconciliation pass after the access; reporting net changes as they
// happen kept each list's order exactly. A dropped block copy lists its
// evictions in geometry order (IBLP, BlockLRU and IBLPExclusive derive
// its items from the geometry), so the truncating shapes' IBLP and
// BlockLRU hashes, and every IBLPExclusive hash, were recorded once the
// map-backed representations were gone.
var netOrderGolden = map[string]uint64{
	"fixed100/adaptive-iblp":          0x436cf317714e0d86,
	"fixed100/athresh-1":              0xd33c2b2442182ba3,
	"fixed100/athresh-2":              0xf44ed2312178cb97,
	"fixed100/block-lru":              0x25e46a0cf67461b9,
	"fixed100/clock":                  0x4f1373b2aec1864b,
	"fixed100/fifo":                   0xada12cb8fa2a3a99,
	"fixed100/gcm":                    0x5925f14050e2c5ab,
	"fixed100/iblp":                   0x329ec5fc3420875c,
	"fixed100/iblp-exclusive":         0x36cd4b1ce155f47c,
	"fixed100/iblp-inclusive":         0x160b56734127defb,
	"fixed100/iblp-promote-all":       0xa16d490f9532c7ff,
	"fixed100/item-lru":               0xc5469f9b145781c9,
	"fixed100/marking":                0xc384333c5851cf08,
	"fixed100/random":                 0xea0efaf23464ce1,
	"fixed128-trunc/adaptive-iblp":    0x287f4ba28aae2916,
	"fixed128-trunc/athresh-1":        0xe5220a0062f75b,
	"fixed128-trunc/athresh-2":        0x534aa8ed1afe256d,
	"fixed128-trunc/block-lru":        0xedfc62a77a8ce478,
	"fixed128-trunc/clock":            0xd4c45763587f5126,
	"fixed128-trunc/fifo":             0xd6b97e418cbdfa55,
	"fixed128-trunc/gcm":              0xd63db74e3474b826,
	"fixed128-trunc/iblp":             0x40a48ef14dc2c0ce,
	"fixed128-trunc/iblp-exclusive":   0x55caac963d679370,
	"fixed128-trunc/iblp-inclusive":   0x845795e027dbf9be,
	"fixed128-trunc/iblp-promote-all": 0x40a48ef14dc2c0ce,
	"fixed128-trunc/item-lru":         0x538aa8b1083e565f,
	"fixed128-trunc/marking":          0x67809c1dbe30c172,
	"fixed128-trunc/random":           0x2a4553ba5c8bf8b,
	"fixed128/adaptive-iblp":          0x71dace3739cd6dc6,
	"fixed128/athresh-1":              0xb5a7402b81535edf,
	"fixed128/athresh-2":              0x8c7562f75eedc02a,
	"fixed128/block-lru":              0xbf5b3cf6b688b759,
	"fixed128/clock":                  0xaf001ec963ba9f60,
	"fixed128/fifo":                   0x3843b136e8123439,
	"fixed128/gcm":                    0xa57b3520ee3595fe,
	"fixed128/iblp":                   0x5416f5f55ede89fb,
	"fixed128/iblp-exclusive":         0x51bc87f5843b7f8d,
	"fixed128/iblp-inclusive":         0x8f218236a7e59996,
	"fixed128/iblp-promote-all":       0xcadb6f63cfb76c1b,
	"fixed128/item-lru":               0x240ffed5cd6880f0,
	"fixed128/marking":                0x555d3db864697bc9,
	"fixed128/random":                 0x54c59bc49c12b6dc,
	"fixed48-trunc/adaptive-iblp":     0x99a8ce12e98cb041,
	"fixed48-trunc/athresh-1":         0x626a7bf5bb7a0b0d,
	"fixed48-trunc/athresh-2":         0x4cac2f3429d81ccc,
	"fixed48-trunc/block-lru":         0x11cce97b3180dbba,
	"fixed48-trunc/clock":             0x89c6e06c6b893ba6,
	"fixed48-trunc/fifo":              0x8c3d4739bc07fd7b,
	"fixed48-trunc/footprint":         0x54defffb59852f07,
	"fixed48-trunc/gcm":               0x8f1e6e9cb7c4d51a,
	"fixed48-trunc/iblp":              0xe6fe2c31d2933b0,
	"fixed48-trunc/iblp-exclusive":    0xb3bddd319a1d66c,
	"fixed48-trunc/iblp-inclusive":    0x64b4116f9cbf700f,
	"fixed48-trunc/iblp-promote-all":  0xe6fe2c31d2933b0,
	"fixed48-trunc/item-lru":          0x922b4b88e4df382b,
	"fixed48-trunc/marking":           0x22266484be457f34,
	"fixed48-trunc/random":            0x622d6adf529c487b,
	"fixed48/adaptive-iblp":           0x426a2b8b11c8cf7b,
	"fixed48/athresh-1":               0xfba3f4fca6fba21e,
	"fixed48/athresh-2":               0x5b122c2d400845e3,
	"fixed48/block-lru":               0xe66986b465365d0b,
	"fixed48/clock":                   0x29d4da293092c0c6,
	"fixed48/fifo":                    0x934a82b384d9bb9a,
	"fixed48/footprint":               0xff0777efa17df73c,
	"fixed48/gcm":                     0x4cef2db9357e5c76,
	"fixed48/iblp":                    0x5f566fa67aa5992f,
	"fixed48/iblp-exclusive":          0x797634f145c8ce59,
	"fixed48/iblp-inclusive":          0x6c44c73aed9743f2,
	"fixed48/iblp-promote-all":        0xe19838d8e95c9e29,
	"fixed48/item-lru":                0x96c95c044d85d08e,
	"fixed48/marking":                 0x4de04316df0c0a8f,
	"fixed48/random":                  0x5b2aa63c2a3c9b43,
	"fixed64-i0/adaptive-iblp":        0xdbb276384074139f,
	"fixed64-i0/athresh-1":            0xacd72be707f0b3af,
	"fixed64-i0/athresh-2":            0x3ce8e00f773b02f6,
	"fixed64-i0/block-lru":            0x279ce0ee6f53be5c,
	"fixed64-i0/clock":                0x98c428ab0fbaa3c9,
	"fixed64-i0/fifo":                 0xd63d31ab7bb60453,
	"fixed64-i0/footprint":            0xf691a702286f2030,
	"fixed64-i0/gcm":                  0xcfd2e70fca2fb67d,
	"fixed64-i0/iblp":                 0x279ce0ee6f53be5c,
	"fixed64-i0/iblp-inclusive":       0x279ce0ee6f53be5c,
	"fixed64-i0/iblp-promote-all":     0x279ce0ee6f53be5c,
	"fixed64-i0/item-lru":             0x3f63ebb74701c0c,
	"fixed64-i0/marking":              0xe83dc025c4315c06,
	"fixed64-i0/random":               0x9802f93e8cb5ffa2,
	"fixed64-trunc/adaptive-iblp":     0xc41db212299cab5d,
	"fixed64-trunc/athresh-1":         0x5a159d3eece71e87,
	"fixed64-trunc/athresh-2":         0xb71715ed56fdcf83,
	"fixed64-trunc/block-lru":         0xef91344279da2ba,
	"fixed64-trunc/clock":             0x42fb980fca6577e,
	"fixed64-trunc/fifo":              0x5fcdcf36c10b97bb,
	"fixed64-trunc/footprint":         0x1ea08d3f5e5c8a7d,
	"fixed64-trunc/gcm":               0x4a362cded2a26e66,
	"fixed64-trunc/iblp":              0xefa1d36d79faaa95,
	"fixed64-trunc/iblp-exclusive":    0x2e9773d66bccba15,
	"fixed64-trunc/iblp-inclusive":    0x6e98557541944422,
	"fixed64-trunc/iblp-promote-all":  0xefa1d36d79faaa95,
	"fixed64-trunc/item-lru":          0x3c19ce5749ba8f91,
	"fixed64-trunc/marking":           0x93f88ce2063d0d59,
	"fixed64-trunc/random":            0x33ee2c8fa4c788cb,
	"fixed64/adaptive-iblp":           0xd63559607a7a8cd,
	"fixed64/athresh-1":               0x32af82b01adea9b4,
	"fixed64/athresh-2":               0x7748bdc398f0d9f4,
	"fixed64/block-lru":               0xd808e8f158230ca2,
	"fixed64/clock":                   0x6c955e5734159d9d,
	"fixed64/fifo":                    0xd01c4fac7add61d4,
	"fixed64/footprint":               0xe3f3d7930a1bd836,
	"fixed64/gcm":                     0x25ed8c70fc2d5229,
	"fixed64/iblp":                    0x5bac2635a0cbc5ad,
	"fixed64/iblp-exclusive":          0x7041cf6b0d39249d,
	"fixed64/iblp-inclusive":          0x10dc4e3e021a8444,
	"fixed64/iblp-promote-all":        0x2f745e0799e82e14,
	"fixed64/item-lru":                0xf20fc7c5ef7e8a2f,
	"fixed64/marking":                 0xcc924cbfd1364ed8,
	"fixed64/random":                  0x23cd2df44dec098e,
	"fixed8-trunc/adaptive-iblp":      0x4a87c7004318cdc3,
	"fixed8-trunc/athresh-1":          0xa9be2092052b4668,
	"fixed8-trunc/athresh-2":          0x9641c42d3540bd9c,
	"fixed8-trunc/block-lru":          0x321304273871a127,
	"fixed8-trunc/clock":              0x7ac799d8304bf880,
	"fixed8-trunc/fifo":               0xde51a7b6e156014c,
	"fixed8-trunc/footprint":          0x97748968ad4de79a,
	"fixed8-trunc/gcm":                0xba06abb4e1b1716b,
	"fixed8-trunc/iblp":               0x1476b1533b46ea47,
	"fixed8-trunc/iblp-exclusive":     0xf89822089ab856c8,
	"fixed8-trunc/iblp-inclusive":     0x98d2c331cd2d2c8,
	"fixed8-trunc/iblp-promote-all":   0x1476b1533b46ea47,
	"fixed8-trunc/item-lru":           0x493f5977a22f3fc5,
	"fixed8-trunc/marking":            0x65201f738ec856fd,
	"fixed8-trunc/random":             0x729a4a3c41fbd26,
	"fixed8/adaptive-iblp":            0xf699693bb03bed6e,
	"fixed8/athresh-1":                0x20d06500e909c369,
	"fixed8/athresh-2":                0x28a172861003b8dd,
	"fixed8/block-lru":                0xb15eefa918e6828c,
	"fixed8/clock":                    0x6a947fc04f18017d,
	"fixed8/fifo":                     0xc470eb19809bc98f,
	"fixed8/footprint":                0xd7ce42b721a64fd9,
	"fixed8/gcm":                      0x3c59891b43eaa178,
	"fixed8/iblp":                     0xdc8ee199b38393d5,
	"fixed8/iblp-exclusive":           0x174e3427fc9f77bc,
	"fixed8/iblp-inclusive":           0xfac8260e813bb015,
	"fixed8/iblp-promote-all":         0xa6e8485e0cbad4d9,
	"fixed8/item-lru":                 0x6c86315227742e41,
	"fixed8/marking":                  0x88546a4b1ab82c89,
	"fixed8/random":                   0xc0fabd5f0b885f27,
	"table-trunc/adaptive-iblp":       0xca4a51cb7954f590,
	"table-trunc/athresh-1":           0xe456fae318ff56dd,
	"table-trunc/athresh-2":           0x1e4472818147418b,
	"table-trunc/block-lru":           0x41b1954da134514a,
	"table-trunc/clock":               0x6c57883036fe7445,
	"table-trunc/fifo":                0xd0add79147d2e6cd,
	"table-trunc/footprint":           0x6ece545b5bb54bfd,
	"table-trunc/gcm":                 0x10815ae90b24fb30,
	"table-trunc/iblp":                0x30958bfec0f09a2c,
	"table-trunc/iblp-exclusive":      0x458ee81c9e7e7e22,
	"table-trunc/iblp-inclusive":      0x2af64f8ca8c320d9,
	"table-trunc/iblp-promote-all":    0x30958bfec0f09a2c,
	"table-trunc/item-lru":            0x195c741db3578a5a,
	"table-trunc/marking":             0xc59a9b17614f8721,
	"table-trunc/random":              0x515bf5fb7d67f4d8,
	"table/adaptive-iblp":             0x625b8fc4389f150d,
	"table/athresh-1":                 0xa5afeb2777013269,
	"table/athresh-2":                 0x9f9a51b76d7ee7f5,
	"table/block-lru":                 0x93db7e87bc31de8e,
	"table/clock":                     0xcf2df952b23eb87b,
	"table/fifo":                      0x6e78e2f4b8603c6d,
	"table/footprint":                 0x8826bcf83b0e029e,
	"table/gcm":                       0xfe036e7f1a7bbc98,
	"table/iblp":                      0x98579114c3f2be98,
	"table/iblp-exclusive":            0xc65d1796e08c5bd,
	"table/iblp-inclusive":            0x98af9ba4cc29441,
	"table/iblp-promote-all":          0x43858229ad88d54d,
	"table/item-lru":                  0x852d37b9bc2d88a0,
	"table/marking":                   0xa6e5333c3fd64acf,
	"table/random":                    0x43b6097e17956a76,
}

// netSetGolden holds every entry's accessStreamHash with each Evicted
// list hashed sorted: it pins the decisions and the evicted sets
// independently of the order a policy lists its evictions in.
var netSetGolden = map[string]uint64{
	"fixed100/adaptive-iblp":          0x9b2016f94aff4fae,
	"fixed100/athresh-1":              0x47b7fea44c2a3d3f,
	"fixed100/athresh-2":              0x982574dace1f0f43,
	"fixed100/block-lru":              0x25e46a0cf67461b9,
	"fixed100/clock":                  0x4f1373b2aec1864b,
	"fixed100/fifo":                   0xada12cb8fa2a3a99,
	"fixed100/gcm":                    0x847e385bcab539c3,
	"fixed100/iblp":                   0x3fe1755b6fc7f0ac,
	"fixed100/iblp-exclusive":         0xc931e6741c6dfde8,
	"fixed100/iblp-inclusive":         0x160b56734127defb,
	"fixed100/iblp-promote-all":       0xcf879786c9946267,
	"fixed100/item-lru":               0xc5469f9b145781c9,
	"fixed100/marking":                0xc384333c5851cf08,
	"fixed100/random":                 0xea0efaf23464ce1,
	"fixed128-trunc/adaptive-iblp":    0xa68c45461a2d2476,
	"fixed128-trunc/athresh-1":        0x3cbfd39854a7232b,
	"fixed128-trunc/athresh-2":        0x7f33f93310f3773d,
	"fixed128-trunc/block-lru":        0xedfc62a77a8ce478,
	"fixed128-trunc/clock":            0xd4c45763587f5126,
	"fixed128-trunc/fifo":             0xd6b97e418cbdfa55,
	"fixed128-trunc/gcm":              0x647d918f292c11ca,
	"fixed128-trunc/iblp":             0xedeb36a6b637a0fa,
	"fixed128-trunc/iblp-exclusive":   0x98112e7ea4d21fc,
	"fixed128-trunc/iblp-inclusive":   0x845795e027dbf9be,
	"fixed128-trunc/iblp-promote-all": 0xedeb36a6b637a0fa,
	"fixed128-trunc/item-lru":         0x538aa8b1083e565f,
	"fixed128-trunc/marking":          0x67809c1dbe30c172,
	"fixed128-trunc/random":           0x2a4553ba5c8bf8b,
	"fixed128/adaptive-iblp":          0x19e6307a5acb7fb6,
	"fixed128/athresh-1":              0xac08ef8064bdedf3,
	"fixed128/athresh-2":              0x8d5039110c388292,
	"fixed128/block-lru":              0xbf5b3cf6b688b759,
	"fixed128/clock":                  0xaf001ec963ba9f60,
	"fixed128/fifo":                   0x3843b136e8123439,
	"fixed128/gcm":                    0xc74a349f1d582f9e,
	"fixed128/iblp":                   0x68c9642239661e43,
	"fixed128/iblp-exclusive":         0x5ba020d228f68cd9,
	"fixed128/iblp-inclusive":         0x8f218236a7e59996,
	"fixed128/iblp-promote-all":       0xcd0699d136ff5e0f,
	"fixed128/item-lru":               0x240ffed5cd6880f0,
	"fixed128/marking":                0x555d3db864697bc9,
	"fixed128/random":                 0x54c59bc49c12b6dc,
	"fixed48-trunc/adaptive-iblp":     0xa51cd1c1bdf29eed,
	"fixed48-trunc/athresh-1":         0xc0c9fb43d3dd58ad,
	"fixed48-trunc/athresh-2":         0x57aad7df348e5d80,
	"fixed48-trunc/block-lru":         0x11cce97b3180dbba,
	"fixed48-trunc/clock":             0x89c6e06c6b893ba6,
	"fixed48-trunc/fifo":              0x8c3d4739bc07fd7b,
	"fixed48-trunc/footprint":         0x6908c6d2dc00d613,
	"fixed48-trunc/gcm":               0x2c9ab2c780e18052,
	"fixed48-trunc/iblp":              0x75f96a24e9cd1a8c,
	"fixed48-trunc/iblp-exclusive":    0x2aa8e7df997fbc0c,
	"fixed48-trunc/iblp-inclusive":    0x64b4116f9cbf700f,
	"fixed48-trunc/iblp-promote-all":  0x75f96a24e9cd1a8c,
	"fixed48-trunc/item-lru":          0x922b4b88e4df382b,
	"fixed48-trunc/marking":           0x22266484be457f34,
	"fixed48-trunc/random":            0x622d6adf529c487b,
	"fixed48/adaptive-iblp":           0xaafaac0ad17bd3db,
	"fixed48/athresh-1":               0xec520c919aafd1de,
	"fixed48/athresh-2":               0x1ef42db8a4e7fdd3,
	"fixed48/block-lru":               0xe66986b465365d0b,
	"fixed48/clock":                   0x29d4da293092c0c6,
	"fixed48/fifo":                    0x934a82b384d9bb9a,
	"fixed48/footprint":               0xe24ca289e28bd95c,
	"fixed48/gcm":                     0x997b80e6f68428e2,
	"fixed48/iblp":                    0xb135eaaccc3b1983,
	"fixed48/iblp-exclusive":          0xc550af132e510949,
	"fixed48/iblp-inclusive":          0x6c44c73aed9743f2,
	"fixed48/iblp-promote-all":        0x60297b47d13d6181,
	"fixed48/item-lru":                0x96c95c044d85d08e,
	"fixed48/marking":                 0x4de04316df0c0a8f,
	"fixed48/random":                  0x5b2aa63c2a3c9b43,
	"fixed64-i0/adaptive-iblp":        0x4872a07c079c2c93,
	"fixed64-i0/athresh-1":            0xd5c0182211011323,
	"fixed64-i0/athresh-2":            0x209e3955994fb53e,
	"fixed64-i0/block-lru":            0x279ce0ee6f53be5c,
	"fixed64-i0/clock":                0x98c428ab0fbaa3c9,
	"fixed64-i0/fifo":                 0xd63d31ab7bb60453,
	"fixed64-i0/footprint":            0xc499a89e03c6e370,
	"fixed64-i0/gcm":                  0x4ce00e7683dd3db5,
	"fixed64-i0/iblp":                 0x279ce0ee6f53be5c,
	"fixed64-i0/iblp-inclusive":       0x279ce0ee6f53be5c,
	"fixed64-i0/iblp-promote-all":     0x279ce0ee6f53be5c,
	"fixed64-i0/item-lru":             0x3f63ebb74701c0c,
	"fixed64-i0/marking":              0xe83dc025c4315c06,
	"fixed64-i0/random":               0x9802f93e8cb5ffa2,
	"fixed64-trunc/adaptive-iblp":     0xea55faac10f23599,
	"fixed64-trunc/athresh-1":         0x76ace84bc60a2003,
	"fixed64-trunc/athresh-2":         0x8d6bca17525256eb,
	"fixed64-trunc/block-lru":         0xef91344279da2ba,
	"fixed64-trunc/clock":             0x42fb980fca6577e,
	"fixed64-trunc/fifo":              0x5fcdcf36c10b97bb,
	"fixed64-trunc/footprint":         0x759eedeeaf831a61,
	"fixed64-trunc/gcm":               0xb27ec16b58e0086,
	"fixed64-trunc/iblp":              0x13f8a088c411825d,
	"fixed64-trunc/iblp-exclusive":    0x9f75cc205a013c19,
	"fixed64-trunc/iblp-inclusive":    0x6e98557541944422,
	"fixed64-trunc/iblp-promote-all":  0x13f8a088c411825d,
	"fixed64-trunc/item-lru":          0x3c19ce5749ba8f91,
	"fixed64-trunc/marking":           0x93f88ce2063d0d59,
	"fixed64-trunc/random":            0x33ee2c8fa4c788cb,
	"fixed64/adaptive-iblp":           0x19e623eccdb664fd,
	"fixed64/athresh-1":               0xbfefd484051d2f60,
	"fixed64/athresh-2":               0xbb2e4c572808d9ec,
	"fixed64/block-lru":               0xd808e8f158230ca2,
	"fixed64/clock":                   0x6c955e5734159d9d,
	"fixed64/fifo":                    0xd01c4fac7add61d4,
	"fixed64/footprint":               0xad27e7bc6d1c7912,
	"fixed64/gcm":                     0x1cd92ffee6d45fa5,
	"fixed64/iblp":                    0xd6439f62738216fd,
	"fixed64/iblp-exclusive":          0xda2d3842997f79bd,
	"fixed64/iblp-inclusive":          0x10dc4e3e021a8444,
	"fixed64/iblp-promote-all":        0xc43220e8d03baa98,
	"fixed64/item-lru":                0xf20fc7c5ef7e8a2f,
	"fixed64/marking":                 0xcc924cbfd1364ed8,
	"fixed64/random":                  0x23cd2df44dec098e,
	"fixed8-trunc/adaptive-iblp":      0x20617b799722a8c3,
	"fixed8-trunc/athresh-1":          0xaed55fa62f90ee28,
	"fixed8-trunc/athresh-2":          0x3504d89e5943119c,
	"fixed8-trunc/block-lru":          0x321304273871a127,
	"fixed8-trunc/clock":              0x7ac799d8304bf880,
	"fixed8-trunc/fifo":               0xde51a7b6e156014c,
	"fixed8-trunc/footprint":          0x9f8aacf44418533a,
	"fixed8-trunc/gcm":                0xbda90cceaf88e56b,
	"fixed8-trunc/iblp":               0xc60e95f6394c41a7,
	"fixed8-trunc/iblp-exclusive":     0x22115b13324c0ce8,
	"fixed8-trunc/iblp-inclusive":     0x98d2c331cd2d2c8,
	"fixed8-trunc/iblp-promote-all":   0xc60e95f6394c41a7,
	"fixed8-trunc/item-lru":           0x493f5977a22f3fc5,
	"fixed8-trunc/marking":            0x65201f738ec856fd,
	"fixed8-trunc/random":             0x729a4a3c41fbd26,
	"fixed8/adaptive-iblp":            0xaa242156970fe,
	"fixed8/athresh-1":                0x6fdd42b9554237d9,
	"fixed8/athresh-2":                0xdb2b40d66bc8df79,
	"fixed8/block-lru":                0xb15eefa918e6828c,
	"fixed8/clock":                    0x6a947fc04f18017d,
	"fixed8/fifo":                     0xc470eb19809bc98f,
	"fixed8/footprint":                0x718c451ed5d0a70d,
	"fixed8/gcm":                      0x13863a9bc16cf6b4,
	"fixed8/iblp":                     0xaca57b1b8f76eba5,
	"fixed8/iblp-exclusive":           0x3efaa0e44827ea4,
	"fixed8/iblp-inclusive":           0xfac8260e813bb015,
	"fixed8/iblp-promote-all":         0xff9accab44b6b1a1,
	"fixed8/item-lru":                 0x6c86315227742e41,
	"fixed8/marking":                  0x88546a4b1ab82c89,
	"fixed8/random":                   0xc0fabd5f0b885f27,
	"table-trunc/adaptive-iblp":       0x93883bc086212654,
	"table-trunc/athresh-1":           0x50909f1fd16c1339,
	"table-trunc/athresh-2":           0x5fcea1ed2cb013df,
	"table-trunc/block-lru":           0x74326128a4ee4ee2,
	"table-trunc/clock":               0x6c57883036fe7445,
	"table-trunc/fifo":                0xd0add79147d2e6cd,
	"table-trunc/footprint":           0xa6a0c770437b32d9,
	"table-trunc/gcm":                 0x29b7b8736c6ea610,
	"table-trunc/iblp":                0xc06145c933ea1d3c,
	"table-trunc/iblp-exclusive":      0xb0a5a3c9cbbbed6e,
	"table-trunc/iblp-inclusive":      0xb73598cb2971f385,
	"table-trunc/iblp-promote-all":    0xc06145c933ea1d3c,
	"table-trunc/item-lru":            0x195c741db3578a5a,
	"table-trunc/marking":             0xc59a9b17614f8721,
	"table-trunc/random":              0x515bf5fb7d67f4d8,
	"table/adaptive-iblp":             0x2b924c4a78c17e1,
	"table/athresh-1":                 0x29a49f04225b3aa5,
	"table/athresh-2":                 0x43cc82c6f44cf629,
	"table/block-lru":                 0x914507defe570e46,
	"table/clock":                     0xcf2df952b23eb87b,
	"table/fifo":                      0x6e78e2f4b8603c6d,
	"table/footprint":                 0xaae5403de6b44552,
	"table/gcm":                       0x7574449e77d8f948,
	"table/iblp":                      0x2f71ed0d7dff65dc,
	"table/iblp-exclusive":            0xead299bdbb9e98dd,
	"table/iblp-inclusive":            0x8af4abe00a32c139,
	"table/iblp-promote-all":          0x776bf49c1da9505d,
	"table/item-lru":                  0x852d37b9bc2d88a0,
	"table/marking":                   0xa6e5333c3fd64acf,
	"table/random":                    0x43b6097e17956a76,
}

// TestNetChangeOrderGolden pins the decisions and the exact Loaded and
// Evicted order of every block-loading policy over full and truncating
// Fixed shapes (B = 8, 48, 64, 100, 128) and uneven Table geometries;
// netSetGolden pins the same runs with each Evicted list as a set.
func TestNetChangeOrderGolden(t *testing.T) {
	for si, s := range goldenShapes() {
		tr := goldenTrace(rand.New(rand.NewSource(int64(300+si))), s.geo, s.universe, 20000)
		for pname, mk := range goldenPolicies(s) {
			name := fmt.Sprintf("%s/%s", s.name, pname)
			checkGolden(t, "list", name, netOrderGolden, accessStreamHash(mk(), tr, false))
			checkGolden(t, "set", name, netSetGolden, accessStreamHash(mk(), tr, true))
		}
	}
}

func checkGolden(t *testing.T, table, name string, golden map[string]uint64, got uint64) {
	t.Helper()
	want, ok := golden[name]
	if !ok {
		t.Errorf("%s %q: %#x, // no golden hash", table, name, got)
		return
	}
	if got != want {
		t.Errorf("%s %s: access-stream hash %#x, golden %#x", table, name, got, want)
	}
}
