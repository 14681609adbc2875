// Package lrulist provides Dense, the recency order every replacement
// policy in this repository keeps: O(1) lookup, promotion, insertion and
// victim selection over unsigned integer IDs, with one flat table
// indexed by ID and a linked list in an array sized by occupancy, so
// the promote/evict path touches no map and, once both arrays are large
// enough, never allocates.
package lrulist

import (
	"fmt"
	"math"
)

// UintID constrains keys usable with Dense: unsigned 64-bit identifier
// types such as model.Item and model.Block.
type UintID interface{ ~uint64 }

// Dense slots 0 and 1 are the head and tail sentinels; a member lives at
// a slot ≥ 2, and a key's table entry is 0 exactly when it is absent
// (no member ever sits at the head), so a zeroed table holds no key.
const (
	denseHead      = 0
	denseTail      = 1
	denseSentinels = 2
)

// denseNode is one doubly-linked-list node and the member it holds,
// addressed by slot index. A freed slot's next links it into the free
// chain.
type denseNode[K UintID] struct {
	prev, next int32
	key        K
}

// Dense is a slice-backed intrusive LRU order over unsigned integer
// keys. The front is the MRU end; the back is the LRU end.
//
// The table, indexed by key, maps each member to its slot and covers
// keys [0, Universe()): an insert past the end grows it to at least
// double its size, so a run whose keys stay below n grows it O(log n)
// times; a lookup past the end reports the key absent. The nodes,
// indexed by slot, hold each member's links and key; they grow with the
// list's peak Len, and a removed member's slot is reused by the next
// insert. Memory is 4 bytes per key up to the largest key inserted
// plus 16 bytes per member at the list's peak (and the spare capacity
// append leaves), so Dense suits the dense integer ID spaces produced
// by workload generators and trace files, not sparse ones. Once both
// arrays have grown, nothing allocates.
//
// The zero value is not usable; construct with NewDense.
type Dense[K UintID] struct {
	slots []int32        // by key: its slot, 0 when absent
	nodes []denseNode[K] // by slot; sentinels at 0, 1
	free  int32          // head of the free chain through next; 0 when empty
	count int
}

// MaxDenseUniverse bounds the keys Dense accepts: beyond it, slot
// indices would overflow int32 (and the footprint would be
// unreasonable anyway). Inserting a key ≥ MaxDenseUniverse panics.
const MaxDenseUniverse = math.MaxInt32 - denseSentinels

// NewDense returns an empty dense order whose table is presized for
// keys [0, universe); 0 presizes nothing. It panics if universe is
// negative or exceeds MaxDenseUniverse.
func NewDense[K UintID](universe int) *Dense[K] {
	if universe < 0 || universe > MaxDenseUniverse {
		panic(fmt.Sprintf("lrulist: dense universe %d outside [0, %d]", universe, MaxDenseUniverse))
	}
	d := &Dense[K]{
		slots: make([]int32, universe),
		nodes: make([]denseNode[K], denseSentinels),
	}
	d.nodes[denseHead].next = denseTail
	d.nodes[denseTail].prev = denseHead
	return d
}

// Universe returns the number of keys the table currently covers.
func (d *Dense[K]) Universe() int { return len(d.slots) }

// slot returns k's slot, 0 when k is absent or past the end of the
// table. It inlines into its callers, and so do Contains, Back and
// PopBack (make inline-check holds those three); MoveToFront,
// PushFront and Remove exceed the compiler's inlining budget (go1.24,
// -gcflags=-m=2) and stay direct calls for a caller holding a *Dense.
// The hot paths copy a slice header into a local before a run of
// stores, so the compiler does not reload it after each one.
//
//gclint:hotpath
func (d *Dense[K]) slot(k K) int32 {
	if uint64(k) >= uint64(len(d.slots)) {
		return 0
	}
	return d.slots[k]
}

// grow extends the table to cover k, at least doubling it. It panics
// if k ≥ MaxDenseUniverse. It is kept out of line so the insert path
// stays small.
//
//go:noinline
func (d *Dense[K]) grow(k K) {
	if uint64(k) >= MaxDenseUniverse {
		panic(fmt.Sprintf("lrulist: key %d at or past MaxDenseUniverse %d", uint64(k), MaxDenseUniverse))
	}
	u := min(max(2*d.Universe(), int(k)+1), MaxDenseUniverse)
	slots := make([]int32, u) //gclint:allowalloc amortized: each grow at least doubles, so keys below n cost O(log n) grows per list
	copy(slots, d.slots)
	d.slots = slots
}

// appendSlot adds a node past the end for a new member when the free
// chain is empty. The nodes grow as append grows them, geometrically,
// so a peak of n members costs O(log n) grows per list; it is kept out
// of line so the insert path stays small.
//
//go:noinline
func (d *Dense[K]) appendSlot() int32 {
	d.nodes = append(d.nodes, denseNode[K]{})
	return int32(len(d.nodes) - 1)
}

// Len returns the number of keys in the list.
func (d *Dense[K]) Len() int { return d.count }

// Contains reports whether k is in the list.
//
//gclint:hotpath
func (d *Dense[K]) Contains(k K) bool {
	return d.slot(k) != 0
}

// PushFront inserts k at the MRU position. If k is already present it is
// promoted instead. It returns true if k was newly inserted.
//
//gclint:hotpath
func (d *Dense[K]) PushFront(k K) bool {
	if uint64(k) >= uint64(len(d.slots)) {
		d.grow(k)
	}
	slots := d.slots
	s := slots[k]
	if s != 0 {
		nodes := d.nodes
		unlink(nodes, s)
		linkFront(nodes, s, k)
		return false
	}
	if s = d.free; s != 0 {
		d.free = d.nodes[s].next
	} else {
		s = d.appendSlot()
	}
	slots[k] = s
	linkFront(d.nodes, s, k)
	d.count++
	return true
}

// MoveToFront promotes k to the MRU position. It reports whether k was
// present.
//
//gclint:hotpath
func (d *Dense[K]) MoveToFront(k K) bool {
	s := d.slot(k)
	if s == 0 {
		return false
	}
	nodes := d.nodes
	unlink(nodes, s)
	linkFront(nodes, s, k)
	return true
}

// Remove deletes k and reports whether it was present.
//
//gclint:hotpath
func (d *Dense[K]) Remove(k K) bool {
	s := d.slot(k)
	if s == 0 {
		return false
	}
	nodes := d.nodes
	unlink(nodes, s)
	nodes[s].next = d.free
	d.free = s
	d.slots[k] = 0
	d.count--
	return true
}

// Back returns the LRU key. ok is false if the list is empty.
//
//gclint:hotpath
func (d *Dense[K]) Back() (k K, ok bool) {
	if d.count == 0 {
		return k, false
	}
	return d.nodes[d.nodes[denseTail].prev].key, true
}

// PopBack removes and returns the LRU key. ok is false if the list is
// empty. It is Remove with the unlink written for the last node, which
// keeps it within the inlining budget.
//
//gclint:hotpath
func (d *Dense[K]) PopBack() (k K, ok bool) {
	if d.count == 0 {
		return k, false
	}
	nodes := d.nodes
	s := nodes[denseTail].prev
	n := nodes[s]
	nodes[n.prev].next = denseTail
	nodes[denseTail].prev = n.prev
	nodes[s].next = d.free
	d.free = s
	k = n.key
	d.slots[k] = 0
	d.count--
	return k, true
}

// Each calls fn for every key from MRU to LRU. fn must not mutate the
// list. Iteration stops early if fn returns false.
func (d *Dense[K]) Each(fn func(K) bool) {
	for s := d.nodes[denseHead].next; s != denseTail; s = d.nodes[s].next {
		if !fn(d.nodes[s].key) {
			return
		}
	}
}

// Clear removes every key, keeping both arrays. It zeroes only its
// members' table entries, so clearing is O(Len), not O(Universe).
func (d *Dense[K]) Clear() {
	for s := d.nodes[denseHead].next; s != denseTail; s = d.nodes[s].next {
		d.slots[d.nodes[s].key] = 0
	}
	d.nodes = d.nodes[:denseSentinels]
	d.nodes[denseHead].next = denseTail
	d.nodes[denseTail].prev = denseHead
	d.free = 0
	d.count = 0
}

// linkFront writes member k at slot s and links it in at the MRU
// position.
//
//gclint:hotpath
func linkFront[K UintID](nodes []denseNode[K], s int32, k K) {
	first := nodes[denseHead].next
	nodes[s] = denseNode[K]{prev: denseHead, next: first, key: k}
	nodes[first].prev = s
	nodes[denseHead].next = s
}

// unlink detaches slot s from its neighbours.
//
//gclint:hotpath
func unlink[K UintID](nodes []denseNode[K], s int32) {
	n := nodes[s]
	nodes[n.prev].next = n.next
	nodes[n.next].prev = n.prev
}
