package lrulist

import (
	"math/rand"
	"runtime"
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

// keys returns d's keys from MRU to LRU.
func keys[K UintID](d *Dense[K]) []K {
	out := make([]K, 0, d.Len())
	d.Each(func(k K) bool {
		out = append(out, k)
		return true
	})
	return out
}

// front returns d's MRU key; ok is false if d is empty.
func front[K UintID](d *Dense[K]) (k K, ok bool) {
	d.Each(func(x K) bool {
		k, ok = x, true
		return false
	})
	return k, ok
}

// shapes runs test on the two ways a list is built: presized for keys
// [0, universe), and built empty so it grows as keys arrive, the form
// every policy builds.
func shapes(t *testing.T, universe int, test func(t *testing.T, universe int)) {
	for _, c := range []struct {
		name     string
		universe int
	}{{"presized", universe}, {"grown", 0}} {
		t.Run(c.name, func(t *testing.T) { test(t, c.universe) })
	}
}

func TestEmpty(t *testing.T)                      { shapes(t, 16, testEmpty) }
func TestOrdering(t *testing.T)                   { shapes(t, 8, testOrdering) }
func TestPushFrontDuplicatePromotes(t *testing.T) { shapes(t, 4, testPushFrontDuplicatePromotes) }
func TestClearAndReuse(t *testing.T)              { shapes(t, 16, testClearAndReuse) }
func TestEachEarlyStop(t *testing.T)              { shapes(t, 8, testEachEarlyStop) }
func TestDifferential(t *testing.T)               { shapes(t, 30, testDifferential) }
func TestPushOrderProperty(t *testing.T)          { shapes(t, 256, testPushOrderProperty) }

func testEmpty(t *testing.T, universe int) {
	d := NewDense[uint64](universe)
	if d.Len() != 0 {
		t.Fatalf("Len = %d", d.Len())
	}
	if _, ok := d.Back(); ok {
		t.Error("Back on empty returned ok")
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
	if got := keys(d); len(got) != 3 || got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("Keys = %v", got)
	}
	d.MoveToFront(1) // 1 3 2
	if back, _ := d.Back(); back != 2 {
		t.Errorf("Back = %d, want 2", back)
	}
	if f, _ := front(d); f != 1 {
		t.Errorf("front = %d, want 1", f)
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
	if f, _ := front(d); f != 0 {
		t.Errorf("front = %d, want 0", f)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
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
	if got := keys(d); len(got) != 1 || got[0] != 14 {
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
	if !d.PushFront(4) || !d.PushFront(1000) {
		t.Fatal("insert past the end reported a duplicate")
	}
	if d.Universe() < 1001 {
		t.Fatalf("Universe = %d after inserting 1000", d.Universe())
	}
	if got := keys(d); len(got) != 4 || got[0] != 1000 || got[1] != 4 || got[2] != 3 || got[3] != 1 {
		t.Fatalf("keys after growth = %v, want [1000 4 3 1]", got)
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
	got := keys(g)
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

// TestDenseCostsFourBytesPerID: a list presized for 2^20 keys pays 4
// bytes per key for its table and, for its nodes, only what its
// members need: 10^5 random operations over 4,096 keys spread across
// the table allocate at most 4 bytes per key plus 64 KiB, and the list
// never holds more slots than its peak Len plus the two sentinels, so
// freed slots are reused. After Clear, the same operations again
// allocate nothing.
func TestDenseCostsFourBytesPerID(t *testing.T) {
	const (
		universe = 1 << 20
		pool     = 4096
		steps    = 100000
		slack    = 64 << 10
	)
	type op struct {
		kind uint8
		key  uint64
	}
	rng := rand.New(rand.NewSource(3))
	ops := make([]op, steps)
	for i := range ops {
		ops[i] = op{uint8(rng.Intn(4)), uint64(rng.Intn(pool)) * (universe / pool)}
	}
	var d *Dense[uint64]
	peak, bad := 0, -1
	run := func() {
		for i, o := range ops {
			switch o.kind {
			case 0:
				d.PushFront(o.key)
			case 1:
				d.MoveToFront(o.key)
			case 2:
				d.Remove(o.key)
			case 3:
				d.PopBack()
			}
			peak = max(peak, d.Len())
			if len(d.nodes) > peak+denseSentinels && bad < 0 {
				bad = i
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d = NewDense[uint64](universe)
	run()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(4*universe + slack); got > limit {
		t.Errorf("allocated %d B, want at most %d (4 B per key plus %d)", got, limit, slack)
	}
	if bad >= 0 {
		t.Errorf("step %d: %d slots held, peak Len %d", bad, len(d.nodes), peak)
	}
	t.Logf("peak Len %d, %d slots, %d B allocated", peak, len(d.nodes), got)

	if allocs := testing.AllocsPerRun(5, func() {
		d.Clear()
		run()
	}); allocs != 0 {
		t.Errorf("a pass after Clear allocated %v times, want 0", allocs)
	}
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
	got := keys(d)
	if len(got) != len(ref.keys) {
		t.Fatalf("final len %d vs %d", len(got), len(ref.keys))
	}
	for i := range got {
		if got[i] != uint64(ref.keys[i]) {
			t.Fatalf("final order differs at %d: %v vs %v", i, got, ref.keys)
		}
	}
}

// TestDensePresizedMatchesGrown drives a Dense presized for its keys and
// one built empty, which grows as keys arrive, with an identical stream
// of well over 10^5 random operations and asserts they stay in
// lockstep: every PopBack evicts the same key, every probe answers
// identically, and the full MRU→LRU order matches at checkpoints and at
// the end. Growing changes no eviction decision.
func TestDensePresizedMatchesGrown(t *testing.T) {
	const (
		universe = 512
		steps    = 200000
	)
	rng := rand.New(rand.NewSource(42))
	d := NewDense[uint64](universe)
	l := NewDense[uint64](0)
	sameOrder := func(step int) {
		dk, lk := keys(d), keys(l)
		if len(dk) != len(lk) {
			t.Fatalf("step %d: keys len %d vs %d", step, len(dk), len(lk))
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
		case 0, 1, 2:
			if dn, ln := d.PushFront(k), l.PushFront(k); dn != ln {
				t.Fatalf("step %d: PushFront(%d) new %v vs %v", step, k, dn, ln)
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
				df, dok := front(d)
				lf, lok := front(l)
				if dok != lok || df != lf {
					t.Fatalf("step %d: front %d,%v vs %d,%v", step, df, dok, lf, lok)
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

// Property: after pushing a sequence of distinct keys, keys(d) is the
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
		got := keys(d)
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
