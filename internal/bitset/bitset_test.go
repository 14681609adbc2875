package bitset

import "testing"

// TestSetGrowsPastEnd: Add past the end grows the set and keeps its
// members, while Has and Remove past the end report absent and grow
// nothing.
func TestSetGrowsPastEnd(t *testing.T) {
	s := New(64)
	s.Add(3)
	for _, id := range []uint64{64, 1000, 1 << 40} {
		if s.Has(id) {
			t.Errorf("Has(%d) past the end reported present", id)
		}
		s.Remove(id)
	}
	if len(s) != 1 {
		t.Fatalf("lookups grew the set to %d words", len(s))
	}
	s.Add(1000)
	if len(s) < 1000/64+1 {
		t.Fatalf("Add(1000) left %d words", len(s))
	}
	for id := uint64(0); id < 64*uint64(len(s)); id++ {
		if want := id == 3 || id == 1000; s.Has(id) != want {
			t.Fatalf("Has(%d) = %v after growth, want %v", id, !want, want)
		}
	}
	s.Clear()
	if s.Has(3) || s.Has(1000) {
		t.Error("Clear left members")
	}
}

// TestSetAddPanicsAtLimit: the one ID range a set refuses to grow to is
// at and past Limit, and it refuses before allocating.
func TestSetAddPanicsAtLimit(t *testing.T) {
	var s Set
	defer func() {
		if recover() == nil {
			t.Error("Add(Limit) did not panic")
		}
		if len(s) != 0 {
			t.Errorf("refused Add grew the set to %d words", len(s))
		}
	}()
	s.Add(Limit)
}
