package lrulist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// referenceLRU is a naive slice-backed model for differential testing.
type referenceLRU struct{ keys []int } // index 0 = MRU

func (r *referenceLRU) pushFront(k int) {
	r.remove(k)
	r.keys = append([]int{k}, r.keys...)
}
func (r *referenceLRU) remove(k int) {
	for i, x := range r.keys {
		if x == k {
			r.keys = append(r.keys[:i], r.keys[i+1:]...)
			return
		}
	}
}
func (r *referenceLRU) moveToFront(k int) {
	for _, x := range r.keys {
		if x == k {
			r.pushFront(k)
			return
		}
	}
}
func (r *referenceLRU) popBack() (int, bool) {
	if len(r.keys) == 0 {
		return 0, false
	}
	k := r.keys[len(r.keys)-1]
	r.keys = r.keys[:len(r.keys)-1]
	return k, true
}

// Each unit test runs twice: TestDenseX on a list presized for its keys,
// TestX on one built empty that grows as keys arrive, the form every
// policy builds.
func TestEmpty(t *testing.T)                           { testEmpty(t, 0) }
func TestDenseEmpty(t *testing.T)                      { testEmpty(t, 16) }
func TestOrdering(t *testing.T)                        { testOrdering(t, 0) }
func TestDenseOrdering(t *testing.T)                   { testOrdering(t, 8) }
func TestPushFrontDuplicatePromotes(t *testing.T)      { testPushFrontDuplicatePromotes(t, 0) }
func TestDensePushFrontDuplicatePromotes(t *testing.T) { testPushFrontDuplicatePromotes(t, 4) }
func TestPushBack(t *testing.T)                        { testPushBack(t, 0) }
func TestDensePushBack(t *testing.T)                   { testPushBack(t, 4) }
func TestClearAndReuse(t *testing.T)                   { testClearAndReuse(t, 0) }
func TestDenseClearAndReuse(t *testing.T)              { testClearAndReuse(t, 16) }
func TestEachEarlyStop(t *testing.T)                   { testEachEarlyStop(t, 0) }
func TestDenseEachEarlyStop(t *testing.T)              { testEachEarlyStop(t, 8) }
func TestDifferential(t *testing.T)                    { testDifferential(t, 0) }
func TestDenseDifferential(t *testing.T)               { testDifferential(t, 30) }
func TestPushOrderProperty(t *testing.T)               { testPushOrderProperty(t, 0) }
func TestDensePushOrderProperty(t *testing.T)          { testPushOrderProperty(t, 256) }

func testEmpty(t *testing.T, universe int) {
	d := NewDense[uint64](universe)
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
	if _, ok := d.Back(); ok {
		t.Error("Back on empty returned ok")
	}
	if _, ok := d.Front(); ok {
		t.Error("Front on empty returned ok")
	}
	if _, ok := d.PopBack(); ok {
		t.Error("PopBack on empty returned ok")
	}
	if d.Remove(3) {
		t.Error("Remove on empty returned true")
	}
	if d.MoveToFront(3) {
		t.Error("MoveToFront on empty returned true")
	}
	if d.Universe() != universe {
		t.Errorf("Universe = %d, want %d", d.Universe(), universe)
	}
}

func testOrdering(t *testing.T, universe int) {
	d := NewDense[uint64](universe)
	for _, k := range []uint64{1, 2, 3} {
		if !d.PushFront(k) {
			t.Fatalf("PushFront(%d) reported duplicate", k)
		}
	}
	// Order: 3 2 1 (MRU..LRU)
	if got := d.Keys(); len(got) != 3 || got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("Keys = %v", got)
	}
	d.MoveToFront(1) // 1 3 2
	if back, _ := d.Back(); back != 2 {
		t.Errorf("Back = %d, want 2", back)
	}
	if front, _ := d.Front(); front != 1 {
		t.Errorf("Front = %d, want 1", front)
	}
	if k, ok := d.PopBack(); !ok || k != 2 {
		t.Errorf("PopBack = %d,%v", k, ok)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func testPushFrontDuplicatePromotes(t *testing.T, universe int) {
	d := NewDense[uint64](universe)
	d.PushFront(0)
	d.PushFront(1)
	if d.PushFront(0) {
		t.Error("duplicate PushFront reported new")
	}
	if front, _ := d.Front(); front != 0 {
		t.Errorf("Front = %d, want 0", front)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func testPushBack(t *testing.T, universe int) {
	d := NewDense[uint64](universe)
	d.PushFront(1)
	d.PushBack(2) // 1 2
	if back, _ := d.Back(); back != 2 {
		t.Errorf("Back = %d, want 2", back)
	}
	d.PushBack(1) // 2 1: existing key demoted
	if back, _ := d.Back(); back != 1 {
		t.Errorf("Back after demote = %d, want 1", back)
	}
}

func testClearAndReuse(t *testing.T, universe int) {
	d := NewDense[uint64](universe)
	for i := uint64(0); i < 10; i++ {
		d.PushFront(i)
	}
	d.Clear()
	if d.Len() != 0 {
		t.Fatalf("Len after Clear = %d", d.Len())
	}
	if d.Contains(5) {
		t.Error("Contains(5) after Clear")
	}
	d.PushFront(14)
	if front, _ := d.Front(); front != 14 {
		t.Errorf("Front = %d", front)
	}
	if got := d.Keys(); len(got) != 1 || got[0] != 14 {
		t.Errorf("Keys after reuse = %v", got)
	}
}

func testEachEarlyStop(t *testing.T, universe int) {
	d := NewDense[uint64](universe)
	for i := uint64(0); i < 5; i++ {
		d.PushFront(i)
	}
	n := 0
	d.Each(func(uint64) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("visited %d, want 2", n)
	}
}

// TestDenseGrowsPastEnd: an insert past the end grows the list and keeps
// its order, a lookup past the end reports absent without growing, and
// a list built with no universe matches the reference model as it grows.
func TestDenseGrowsPastEnd(t *testing.T) {
	d := NewDense[uint64](4)
	d.PushFront(1)
	d.PushFront(3)
	for _, k := range []uint64{4, 1000, 1 << 20} {
		if d.Contains(k) || d.MoveToFront(k) || d.Remove(k) {
			t.Errorf("lookup of %d past the end reported present", k)
		}
	}
	if d.Universe() != 4 {
		t.Fatalf("lookups grew the list to %d", d.Universe())
	}
	if !d.PushFront(4) || !d.PushBack(1000) {
		t.Fatal("insert past the end reported a duplicate")
	}
	if d.Universe() < 1001 {
		t.Fatalf("Universe = %d after inserting 1000", d.Universe())
	}
	if got := d.Keys(); len(got) != 4 || got[0] != 4 || got[1] != 3 || got[2] != 1 || got[3] != 1000 {
		t.Fatalf("Keys after growth = %v, want [4 3 1 1000]", got)
	}

	rng := rand.New(rand.NewSource(7))
	g := NewDense[uint64](0)
	ref := &referenceLRU{}
	for step := 0; step < 5000; step++ {
		k := rng.Intn(step/8 + 1)
		switch rng.Intn(3) {
		case 0:
			g.PushFront(uint64(k))
			ref.pushFront(k)
		case 1:
			g.MoveToFront(uint64(k))
			ref.moveToFront(k)
		case 2:
			a, aok := g.PopBack()
			b, bok := ref.popBack()
			if aok != bok || (aok && a != uint64(b)) {
				t.Fatalf("step %d: PopBack %d,%v vs ref %d,%v", step, a, aok, b, bok)
			}
		}
	}
	got := g.Keys()
	if len(got) != len(ref.keys) {
		t.Fatalf("final len %d vs %d", len(got), len(ref.keys))
	}
	for i := range got {
		if got[i] != uint64(ref.keys[i]) {
			t.Fatalf("final order differs at %d: %v vs %v", i, got, ref.keys)
		}
	}
}

// TestDenseOutOfUniversePanics: the one key range Dense refuses is at
// and past MaxDenseUniverse, and it refuses before allocating.
func TestDenseOutOfUniversePanics(t *testing.T) {
	d := NewDense[uint64](0)
	if d.Contains(MaxDenseUniverse) {
		t.Error("Contains(MaxDenseUniverse) on an empty list")
	}
	defer func() {
		if recover() == nil {
			t.Error("PushFront(MaxDenseUniverse) did not panic")
		}
		if d.Universe() != 0 {
			t.Errorf("refused insert grew the list to %d", d.Universe())
		}
	}()
	d.PushFront(MaxDenseUniverse)
}

func TestDenseBadUniversePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense(-1) did not panic")
		}
	}()
	NewDense[uint64](-1)
}

// testDifferential drives Dense and the naive model with the same
// random operation stream and checks full-order agreement.
func testDifferential(t *testing.T, universe int) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense[uint64](universe)
	ref := &referenceLRU{}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(30)
		switch rng.Intn(4) {
		case 0:
			d.PushFront(uint64(k))
			ref.pushFront(k)
		case 1:
			d.Remove(uint64(k))
			ref.remove(k)
		case 2:
			d.MoveToFront(uint64(k))
			ref.moveToFront(k)
		case 3:
			a, aok := d.PopBack()
			b, bok := ref.popBack()
			if aok != bok || (aok && a != uint64(b)) {
				t.Fatalf("step %d: PopBack %d,%v vs ref %d,%v", step, a, aok, b, bok)
			}
		}
		if d.Len() != len(ref.keys) {
			t.Fatalf("step %d: Len %d vs ref %d", step, d.Len(), len(ref.keys))
		}
	}
	got := d.Keys()
	if len(got) != len(ref.keys) {
		t.Fatalf("final len %d vs %d", len(got), len(ref.keys))
	}
	for i := range got {
		if got[i] != uint64(ref.keys[i]) {
			t.Fatalf("final order differs at %d: %v vs %v", i, got, ref.keys)
		}
	}
}

// TestDenseVsListCrossCheck drives a Dense presized for its keys and
// one built empty, which grows as keys arrive, with an identical stream
// of well over 10^5 random operations and asserts they stay in
// lockstep: every PopBack evicts the same key, every probe answers
// identically, and the full MRU→LRU order matches at checkpoints and at
// the end. Growing changes no eviction decision.
func TestDenseVsListCrossCheck(t *testing.T) {
	const (
		universe = 512
		steps    = 200000
	)
	rng := rand.New(rand.NewSource(42))
	d := NewDense[uint64](universe)
	l := NewDense[uint64](0)
	sameOrder := func(step int) {
		dk, lk := d.Keys(), l.Keys()
		if len(dk) != len(lk) {
			t.Fatalf("step %d: Keys len %d vs %d", step, len(dk), len(lk))
		}
		for i := range dk {
			if dk[i] != lk[i] {
				t.Fatalf("step %d: order differs at %d: presized %v vs grown %v", step, i, dk, lk)
			}
		}
	}
	for step := 0; step < steps; step++ {
		k := uint64(rng.Intn(universe))
		switch rng.Intn(8) {
		case 0, 1:
			if dn, ln := d.PushFront(k), l.PushFront(k); dn != ln {
				t.Fatalf("step %d: PushFront(%d) new %v vs %v", step, k, dn, ln)
			}
		case 2:
			if dn, ln := d.PushBack(k), l.PushBack(k); dn != ln {
				t.Fatalf("step %d: PushBack(%d) new %v vs %v", step, k, dn, ln)
			}
		case 3:
			if dok, lok := d.MoveToFront(k), l.MoveToFront(k); dok != lok {
				t.Fatalf("step %d: MoveToFront(%d) %v vs %v", step, k, dok, lok)
			}
		case 4:
			if dok, lok := d.Remove(k), l.Remove(k); dok != lok {
				t.Fatalf("step %d: Remove(%d) %v vs %v", step, k, dok, lok)
			}
		case 5:
			dv, dok := d.PopBack()
			lv, lok := l.PopBack()
			if dok != lok || dv != lv {
				t.Fatalf("step %d: PopBack %d,%v vs %d,%v — eviction order diverged", step, dv, dok, lv, lok)
			}
		case 6:
			if dc, lc := d.Contains(k), l.Contains(k); dc != lc {
				t.Fatalf("step %d: Contains(%d) %v vs %v", step, k, dc, lc)
			}
			db, dok := d.Back()
			lb, lok := l.Back()
			if dok != lok || db != lb {
				t.Fatalf("step %d: Back %d,%v vs %d,%v", step, db, dok, lb, lok)
			}
		case 7:
			if rng.Intn(1000) == 0 {
				d.Clear()
				l.Clear()
			} else {
				df, dok := d.Front()
				lf, lok := l.Front()
				if dok != lok || df != lf {
					t.Fatalf("step %d: Front %d,%v vs %d,%v", step, df, dok, lf, lok)
				}
			}
		}
		if d.Len() != l.Len() {
			t.Fatalf("step %d: Len %d vs %d", step, d.Len(), l.Len())
		}
		if step%5000 == 0 {
			sameOrder(step)
		}
	}
	sameOrder(steps)
}

// Property: after pushing a sequence of distinct keys, Keys() is the
// reverse of the push order.
func testPushOrderProperty(t *testing.T, universe int) {
	prop := func(raw []uint8) bool {
		d := NewDense[uint64](universe)
		seen := make(map[uint8]bool)
		var distinct []uint8
		for _, k := range raw {
			if !seen[k] {
				seen[k] = true
				distinct = append(distinct, k)
				d.PushFront(uint64(k))
			}
		}
		got := d.Keys()
		if len(got) != len(distinct) {
			return false
		}
		for i := range got {
			if got[i] != uint64(distinct[len(distinct)-1-i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkDensePushFrontHit(b *testing.B) {
	d := NewDense[uint64](1024)
	for i := uint64(0); i < 1024; i++ {
		d.PushFront(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PushFront(uint64(i) % 1024)
	}
}

func BenchmarkDensePushPopSteadyState(b *testing.B) {
	d := NewDense[uint64](1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.PushFront(uint64(i) % (1 << 20))
		if d.Len() > 1024 {
			d.PopBack()
		}
	}
}
