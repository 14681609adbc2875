package opt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"

	"gccache/internal/checkpoint"
	"gccache/internal/model"
	"gccache/internal/trace"
)

// ErrDeadline is returned (wrapped) by the anytime solvers when their
// context ends before optimality is proven. The accompanying Anytime
// still carries the best incumbent and lower bound found so far.
var ErrDeadline = errors.New("opt: deadline exceeded before optimality proven")

// Anytime is the result of an anytime exact solve: a feasible incumbent
// cost, a proven lower bound, and how far the dynamic program got.
// Incumbent == Lower (with Exact true) means the optimum is certified.
type Anytime struct {
	// Incumbent is the cost of the best feasible schedule known — the
	// exact optimum when Exact, otherwise a DP prefix completed greedily
	// with furthest-next-use eviction. Always an upper bound on OPT.
	Incumbent int64
	// Lower is a proven lower bound on OPT: the cheapest frontier state
	// after Steps accesses (the remaining accesses cannot reduce cost).
	Lower int64
	// Exact reports that Incumbent is the certified optimum.
	Exact bool
	// Steps is how many trace positions the DP fully processed.
	Steps int
}

// instance is a trace indexed for the bitmask solvers: the distinct-item
// universe and each item's block restricted to that universe.
type instance struct {
	index     map[model.Item]int
	items     []model.Item
	blockMask []uint32
}

// newInstance indexes tr's universe, enforcing MaxExactUniverse.
func newInstance(tr trace.Trace, geo model.Geometry) (*instance, error) {
	ins := &instance{index: make(map[model.Item]int)}
	for _, it := range tr {
		if _, ok := ins.index[it]; !ok {
			ins.index[it] = len(ins.index)
			ins.items = append(ins.items, it)
		}
	}
	n := len(ins.index)
	if n > MaxExactUniverse {
		return nil, fmt.Errorf("opt: %d distinct items exceeds exact-solver limit %d", n, MaxExactUniverse)
	}
	ins.blockMask = make([]uint32, n)
	var sibBuf []model.Item // owned copy; solvers may share a geometry
	for it, idx := range ins.index {
		var m uint32
		sibBuf = model.AppendItemsOf(geo, sibBuf[:0], geo.BlockOf(it))
		for _, sib := range sibBuf {
			if j, ok := ins.index[sib]; ok {
				m |= 1 << uint(j)
			}
		}
		ins.blockMask[idx] = m
	}
	return ins, nil
}

// itemsOf expands a mask to items in universe-index order.
func (ins *instance) itemsOf(mask uint32) []model.Item {
	var out []model.Item
	for m := mask; m != 0; m &= m - 1 {
		out = append(out, ins.items[bits.TrailingZeros32(m)])
	}
	return out
}

// maskStep translates one mask transition into a schedule Step for the
// access it (requested item listed first among the loads).
func (ins *instance) maskStep(it model.Item, prev, cur uint32) Step {
	x := uint32(1) << uint(ins.index[it])
	st := Step{Hit: prev&x != 0, Contents: ins.itemsOf(cur)}
	if loadMask := cur &^ prev; loadMask != 0 {
		if loadMask&x != 0 {
			st.Load = append(st.Load, it)
			loadMask &^= x
		}
		st.Load = append(st.Load, ins.itemsOf(loadMask)...)
	}
	st.Evict = ins.itemsOf(prev &^ cur)
	return st
}

// bestState picks the deterministic representative of a frontier: the
// minimum cost, ties broken toward the smallest mask.
func bestState(frontier map[uint32]int64) (uint32, int64) {
	best := int64(math.MaxInt64)
	var bestMask uint32
	for m, cost := range frontier {
		if cost < best || (cost == best && m < bestMask) {
			best, bestMask = cost, m
		}
	}
	return bestMask, best
}

// nextUseAfter returns the position of the first access to universe
// index j strictly after position i, or len(tr) when none.
func (ins *instance) nextUseAfter(tr trace.Trace, i, j int) int {
	for p := i + 1; p < len(tr); p++ {
		if ins.index[tr[p]] == j {
			return p
		}
	}
	return len(tr)
}

// greedyComplete plays tr[from:] starting from cache contents mask with
// a deterministic policy — load every free sibling that fits, keep the
// k−1 items reused soonest (furthest-next-use eviction, ties toward the
// smaller item index) — and returns the added cost. When emit is
// non-nil it receives one Step per access, making the completed prefix
// plus these steps a full feasible schedule.
func (ins *instance) greedyComplete(tr trace.Trace, from int, mask uint32, k int, emit func(Step)) int64 {
	cost := int64(0)
	for i := from; i < len(tr); i++ {
		it := tr[i]
		x := ins.index[it]
		xbit := uint32(1) << uint(x)
		prev := mask
		if mask&xbit == 0 {
			cost++
			avail := mask | ins.blockMask[x]
			if bits.OnesCount32(avail) <= k {
				mask = avail
			} else {
				// Keep x plus the k−1 other available items with the
				// soonest next use.
				type cand struct{ next, idx int }
				var cands []cand
				for m := avail &^ xbit; m != 0; m &= m - 1 {
					j := bits.TrailingZeros32(m)
					cands = append(cands, cand{next: ins.nextUseAfter(tr, i, j), idx: j})
				}
				sort.Slice(cands, func(a, b int) bool {
					if cands[a].next != cands[b].next {
						return cands[a].next < cands[b].next
					}
					return cands[a].idx < cands[b].idx
				})
				mask = xbit
				for _, c := range cands[:k-1] {
					mask |= 1 << uint(c.idx)
				}
			}
		}
		if emit != nil {
			emit(ins.maskStep(it, prev, mask))
		}
	}
	return cost
}

// Checkpoint is a paused exact solve: the DP frontier after Step trace
// positions. Resuming from it is byte-identical to never having paused,
// because the frontier is the DP's entire state.
type Checkpoint struct {
	Step     int
	Frontier map[uint32]int64
}

const solverSnapshotKind = "opt.exact"

// InstanceHash fingerprints a solver instance (trace, block structure,
// cache size) with FNV-1a so a checkpoint is never resumed against a
// different problem.
func InstanceHash(tr trace.Trace, geo model.Geometry, k int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(uint64(k))
	w(uint64(len(tr)))
	for _, it := range tr {
		w(uint64(it))
		w(uint64(geo.BlockOf(it)))
	}
	return int64(h.Sum64())
}

// Snapshot renders the checkpoint for atomic persistence, stamping the
// instance hash.
func (c *Checkpoint) Snapshot(hash int64) *checkpoint.Snapshot {
	masks := make([]uint32, 0, len(c.Frontier))
	for m := range c.Frontier {
		masks = append(masks, m) //gclint:orderok sorted below before use
	}
	sort.Slice(masks, func(a, b int) bool { return masks[a] < masks[b] })
	var body []byte
	for _, m := range masks {
		body = binary.AppendUvarint(body, uint64(m))
		body = binary.AppendVarint(body, c.Frontier[m])
	}
	return &checkpoint.Snapshot{
		Kind: solverSnapshotKind,
		Meta: map[string]int64{
			"step": int64(c.Step), "hash": hash, "states": int64(len(masks)),
		},
		Sections: map[string][]byte{"frontier": body},
	}
}

// CheckpointFromSnapshot reverses Snapshot, rejecting snapshots of the
// wrong kind or for a different instance hash.
func CheckpointFromSnapshot(s *checkpoint.Snapshot, hash int64) (*Checkpoint, error) {
	if s.Kind != solverSnapshotKind {
		return nil, fmt.Errorf("opt: snapshot kind %q is not a solver checkpoint", s.Kind)
	}
	if got := s.MetaInt("hash", 0); got != hash {
		return nil, fmt.Errorf("opt: snapshot instance hash %#x does not match %#x", got, hash)
	}
	c := &Checkpoint{
		Step:     int(s.MetaInt("step", 0)),
		Frontier: make(map[uint32]int64),
	}
	body := s.Get("frontier")
	for len(body) > 0 {
		m, k := binary.Uvarint(body)
		if k <= 0 || m > math.MaxUint32 {
			return nil, fmt.Errorf("opt: corrupt frontier mask in snapshot")
		}
		body = body[k:]
		cost, k := binary.Varint(body)
		if k <= 0 {
			return nil, fmt.Errorf("opt: corrupt frontier cost in snapshot")
		}
		body = body[k:]
		c.Frontier[uint32(m)] = cost
	}
	if int64(len(c.Frontier)) != s.MetaInt("states", -1) {
		return nil, fmt.Errorf("opt: snapshot frontier has %d states, header says %d",
			len(c.Frontier), s.MetaInt("states", -1))
	}
	if c.Step < 0 {
		return nil, fmt.Errorf("opt: negative snapshot step %d", c.Step)
	}
	return c, nil
}

// exactStep folds one access into the frontier: relax every reachable
// maximal next state, then prune dominated states.
func exactStep(ins *instance, frontier map[uint32]int64, it model.Item, k int) map[uint32]int64 {
	x := ins.index[it]
	xbit := uint32(1) << uint(x)
	next := make(map[uint32]int64, len(frontier))
	relax := func(mask uint32, cost int64) {
		if old, ok := next[mask]; !ok || cost < old {
			next[mask] = cost
		}
	}
	for mask, cost := range frontier {
		if mask&xbit != 0 {
			relax(mask, cost)
			continue
		}
		avail := mask | ins.blockMask[x]
		// Enumerate maximal next states: keep x plus any
		// min(k, |avail|) − 1 of the other available items.
		others := avail &^ xbit
		keep := k - 1
		if cnt := bits.OnesCount32(others); cnt <= keep {
			relax(avail, cost+1)
			continue
		}
		forEachSubsetOfSize(others, keep, func(sub uint32) {
			relax(sub|xbit, cost+1)
		})
	}
	return pruneDominated(next)
}
