// Package lrulist provides Dense, the recency order every replacement
// policy in this repository keeps: O(1) lookup, promotion, insertion and
// victim selection over unsigned integer IDs, stored in one flat array
// indexed by ID so the promote/evict path touches no map and, once the
// array is large enough, never allocates.
package lrulist

import (
	"fmt"
	"math"
)

// UintID constrains keys usable with Dense: unsigned 64-bit identifier
// types such as model.Item and model.Block.
type UintID interface{ ~uint64 }

// Dense slots 0 and 1 are the head and tail sentinels; key k lives at
// slot k+2. A slot is absent exactly when its next link is 0 (no live
// node ever points at the head), so a zeroed link array is an empty list.
const (
	denseHead      = 0
	denseTail      = 1
	denseSentinels = 2
)

// denseLink is one doubly-linked-list node, addressed by slot index.
type denseLink struct{ prev, next int32 }

// Dense is a slice-backed intrusive LRU order over unsigned integer
// keys. The front is the MRU end; the back is the LRU end. The linked
// list lives in one flat array of int32 link pairs indexed by key.
//
// The array covers keys [0, Universe()). An insert past the end grows
// it to at least double its size, so a run whose keys stay below n
// grows O(log n) times and then never allocates again; a lookup past
// the end reports the key absent. Memory is 8 bytes per key up to the
// largest key inserted, so Dense suits the dense integer ID spaces
// produced by workload generators and trace files, not sparse ones.
//
// The zero value is not usable; construct with NewDense.
type Dense[K UintID] struct {
	links []denseLink // slot = key + 2; sentinels at 0, 1
	count int
}

// MaxDenseUniverse bounds the keys Dense accepts: beyond it, slot
// indices would overflow int32 (and the footprint would be
// unreasonable anyway). Inserting a key ≥ MaxDenseUniverse panics.
const MaxDenseUniverse = math.MaxInt32 - denseSentinels

// NewDense returns an empty dense order presized for keys
// [0, universe); 0 presizes nothing. It panics if universe is negative
// or exceeds MaxDenseUniverse.
func NewDense[K UintID](universe int) *Dense[K] {
	if universe < 0 || universe > MaxDenseUniverse {
		panic(fmt.Sprintf("lrulist: dense universe %d outside [0, %d]", universe, MaxDenseUniverse))
	}
	d := &Dense[K]{links: make([]denseLink, universe+denseSentinels)}
	d.links[denseHead].next = denseTail
	d.links[denseTail].prev = denseHead
	return d
}

// Universe returns the number of keys the array currently covers.
func (d *Dense[K]) Universe() int { return len(d.links) - denseSentinels }

// slot maps a key to its link index; ok is false for a key past the end,
// which no list holds. It inlines into its callers, and so do Contains,
// PopBack, Back and Front; MoveToFront, PushFront and Remove exceed the
// compiler's inlining budget (go1.24, -gcflags=-m=2) and stay direct
// calls for a caller holding a *Dense.
//
//gclint:hotpath
func (d *Dense[K]) slot(k K) (s int32, ok bool) {
	if uint64(k) >= uint64(len(d.links)-denseSentinels) {
		return 0, false
	}
	return int32(k) + denseSentinels, true
}

// insertSlot is slot for an insert: a key past the end grows the array.
//
//gclint:hotpath
func (d *Dense[K]) insertSlot(k K) int32 {
	if uint64(k) >= uint64(len(d.links)-denseSentinels) {
		d.grow(k)
	}
	return int32(k) + denseSentinels
}

// grow extends the array to cover k, at least doubling it. It panics
// if k ≥ MaxDenseUniverse. It is kept out of line so the insert paths
// stay small.
//
//go:noinline
func (d *Dense[K]) grow(k K) {
	if uint64(k) >= MaxDenseUniverse {
		panic(fmt.Sprintf("lrulist: key %d at or past MaxDenseUniverse %d", uint64(k), MaxDenseUniverse))
	}
	u := min(max(2*d.Universe(), int(k)+1), MaxDenseUniverse)
	links := make([]denseLink, u+denseSentinels) //gclint:allowalloc amortized: each grow at least doubles, so keys below n cost O(log n) grows per list
	copy(links, d.links)
	d.links = links
}

// Len returns the number of keys in the list.
func (d *Dense[K]) Len() int { return d.count }

// Contains reports whether k is in the list.
//
//gclint:hotpath
func (d *Dense[K]) Contains(k K) bool {
	s, ok := d.slot(k)
	return ok && d.links[s].next != 0
}

// PushFront inserts k at the MRU position. If k is already present it is
// promoted instead. It returns true if k was newly inserted.
//
//gclint:hotpath
func (d *Dense[K]) PushFront(k K) bool {
	s := d.insertSlot(k)
	if d.links[s].next != 0 {
		d.unlink(s)
		d.linkFront(s)
		return false
	}
	d.linkFront(s)
	d.count++
	return true
}

// PushBack inserts k at the LRU position. If k is already present it is
// demoted to the LRU position. It returns true if k was newly inserted.
//
//gclint:hotpath
func (d *Dense[K]) PushBack(k K) bool {
	s := d.insertSlot(k)
	if d.links[s].next != 0 {
		d.unlink(s)
		d.linkBack(s)
		return false
	}
	d.linkBack(s)
	d.count++
	return true
}

// MoveToFront promotes k to the MRU position. It reports whether k was
// present.
//
//gclint:hotpath
func (d *Dense[K]) MoveToFront(k K) bool {
	s, ok := d.slot(k)
	if !ok || d.links[s].next == 0 {
		return false
	}
	d.unlink(s)
	d.linkFront(s)
	return true
}

// Remove deletes k and reports whether it was present.
//
//gclint:hotpath
func (d *Dense[K]) Remove(k K) bool {
	s, ok := d.slot(k)
	if !ok || d.links[s].next == 0 {
		return false
	}
	d.unlink(s)
	d.links[s] = denseLink{}
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
	return K(d.links[denseTail].prev - denseSentinels), true
}

// Front returns the MRU key. ok is false if the list is empty.
//
//gclint:hotpath
func (d *Dense[K]) Front() (k K, ok bool) {
	if d.count == 0 {
		return k, false
	}
	return K(d.links[denseHead].next - denseSentinels), true
}

// PopBack removes and returns the LRU key. ok is false if the list is
// empty.
//
//gclint:hotpath
func (d *Dense[K]) PopBack() (k K, ok bool) {
	if d.count == 0 {
		return k, false
	}
	s := d.links[denseTail].prev
	d.unlink(s)
	d.links[s] = denseLink{}
	d.count--
	return K(s - denseSentinels), true
}

// Each calls fn for every key from MRU to LRU. fn must not mutate the
// list. Iteration stops early if fn returns false.
func (d *Dense[K]) Each(fn func(K) bool) {
	for s := d.links[denseHead].next; s != denseTail; s = d.links[s].next {
		if !fn(K(s - denseSentinels)) {
			return
		}
	}
}

// Keys returns all keys from MRU to LRU in a fresh slice.
func (d *Dense[K]) Keys() []K {
	out := make([]K, 0, d.count)
	d.Each(func(k K) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Clear removes every key, keeping the array. It walks only the
// occupied slots, so clearing is O(Len), not O(Universe).
func (d *Dense[K]) Clear() {
	for s := d.links[denseHead].next; s != denseTail; {
		next := d.links[s].next
		d.links[s] = denseLink{}
		s = next
	}
	d.links[denseHead].next = denseTail
	d.links[denseTail].prev = denseHead
	d.count = 0
}

//gclint:hotpath
func (d *Dense[K]) linkFront(s int32) {
	first := d.links[denseHead].next
	d.links[s] = denseLink{prev: denseHead, next: first}
	d.links[first].prev = s
	d.links[denseHead].next = s
}

//gclint:hotpath
func (d *Dense[K]) linkBack(s int32) {
	last := d.links[denseTail].prev
	d.links[s] = denseLink{prev: last, next: denseTail}
	d.links[last].next = s
	d.links[denseTail].prev = s
}

//gclint:hotpath
func (d *Dense[K]) unlink(s int32) {
	l := d.links[s]
	d.links[l.prev].next = l.next
	d.links[l.next].prev = l.prev
}
