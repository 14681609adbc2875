package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/obs"
)

// hashProbe folds the kind, item and N of every mark and phase-reset
// event it observes into a shared hash.
type hashProbe struct {
	h   hash.Hash64
	buf []byte
}

func (p *hashProbe) Observe(e *obs.Record) {
	if e.Kind != obs.EvMark && e.Kind != obs.EvPhaseReset {
		return
	}
	p.buf = binary.LittleEndian.AppendUint64(p.buf[:0], uint64(e.Kind))
	p.buf = binary.LittleEndian.AppendUint64(p.buf, uint64(e.Item))
	p.buf = binary.LittleEndian.AppendUint32(p.buf, uint32(e.N))
	p.h.Write(p.buf)
}

// decisionHash replays tr through c with a hashing probe attached to
// gcm (the policy c wraps, or c itself) and returns the FNV-64a hash of
// every Access result — Hit, then Loaded and Evicted in emitted order —
// interleaved with the marks and phase resets GCM reports to the probe.
func decisionHash(c cachesim.Cache, gcm *GCM, tr []model.Item) uint64 {
	p := &hashProbe{h: fnv.New64a()}
	gcm.SetProbe(p)
	defer gcm.SetProbe(nil)
	var buf []byte
	for _, it := range tr {
		a := c.Access(it)
		buf = buf[:0]
		if a.Hit {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(a.Loaded())))
		for _, x := range a.Loaded() {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(a.Evicted())))
		for _, x := range a.Evicted() {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
		p.h.Write(buf)
	}
	return p.h.Sum64()
}

// gcmDecisionGolden holds decisionHash values. Their decisions are
// those of the map-and-*rand.Rand implementation of GCM, which every
// later one must reproduce exactly, grown on demand or presized; they
// were re-recorded, with the decisions unchanged, when the probe half
// narrowed to marks and phase resets.
// k=192 draws victims through Int31n's rejection loop and k=256 through
// its power-of-two mask. math/rand reduces seeds modulo 2^31-1, so
// math.MaxInt64 replays seed 1.
var gcmDecisionGolden = map[string]uint64{
	"markAll=false/k=192/seed=-7":                  0x7e0be2ac8bc310c7,
	"markAll=false/k=192/seed=0":                   0x80854edfdbe49805,
	"markAll=false/k=192/seed=1":                   0xea89c4b00054b298,
	"markAll=false/k=192/seed=9223372036854775807": 0xea89c4b00054b298,
	"markAll=false/k=256/seed=-7":                  0xfb19900406b3f3e5,
	"markAll=false/k=256/seed=0":                   0x8198d9edff18423a,
	"markAll=false/k=256/seed=1":                   0x428898b262384eeb,
	"markAll=false/k=256/seed=9223372036854775807": 0x428898b262384eeb,
	"markAll=true/k=192/seed=-7":                   0xf6af5b17f177cb2d,
	"markAll=true/k=192/seed=0":                    0xf583ab354f47a4a6,
	"markAll=true/k=192/seed=1":                    0x5ff58311b98aad3c,
	"markAll=true/k=192/seed=9223372036854775807":  0x5ff58311b98aad3c,
	"markAll=true/k=256/seed=-7":                   0x69a8fe21b199a389,
	"markAll=true/k=256/seed=0":                    0xef36177a5253f08b,
	"markAll=true/k=256/seed=1":                    0xbcdb3312b3f59e12,
	"markAll=true/k=256/seed=9223372036854775807":  0xbcdb3312b3f59e12,
}

// TestGCMDecisionStreamGolden pins every random decision GCM and
// GCMMarkAll make, grown on demand and presized, to recorded hashes: any
// change to which draws are made or how they map to victims and
// sibling orders fails it. A pooled instance reused through
// Reseed+Reset must hash exactly like a fresh one.
func TestGCMDecisionStreamGolden(t *testing.T) {
	const universe = 4096
	g := model.NewFixed(16)
	tr := genTrace(rand.New(rand.NewSource(2205)), universe, 20000, 16)
	warm := genTrace(rand.New(rand.NewSource(14543)), universe, 5000, 16)

	build := func(markAll, presized bool, k int, seed int64) (cachesim.Cache, *GCM) {
		c := NewGCM(k, g, seed)
		if presized {
			c = NewGCMBounded(k, g, seed, universe)
		}
		if markAll {
			return &GCMMarkAll{inner: c}, c
		}
		return c, c
	}
	for _, markAll := range []bool{false, true} {
		for _, k := range []int{192, 256} {
			for _, seed := range []int64{0, 1, -7, math.MaxInt64} {
				name := fmt.Sprintf("markAll=%v/k=%d/seed=%d", markAll, k, seed)
				want, ok := gcmDecisionGolden[name]
				if !ok {
					t.Fatalf("%s: no golden hash", name)
				}
				for _, presized := range []bool{false, true} {
					c, gcm := build(markAll, presized, k, seed)
					if h := decisionHash(c, gcm, tr); h != want {
						t.Errorf("%s presized=%v: decision hash %#x, golden %#x", name, presized, h, want)
					}
				}
			}
			for _, presized := range []bool{false, true} {
				pooled, gcm := build(markAll, presized, k, 1)
				for _, it := range warm {
					pooled.Access(it)
				}
				gcm.Reseed(-7)
				pooled.Reset()
				name := fmt.Sprintf("markAll=%v/k=%d/seed=-7", markAll, k)
				if h, want := decisionHash(pooled, gcm, tr), gcmDecisionGolden[name]; h != want {
					t.Errorf("%s presized=%v: after Reseed(-7)+Reset decision hash %#x, golden %#x", name, presized, h, want)
				}
			}
		}
	}
}
