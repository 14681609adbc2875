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

// TestWordStraddlesTwoWords: a range at an unaligned ID reads, sets and
// clears bits of two neighbouring words, and only the masked ones.
func TestWordStraddlesTwoWords(t *testing.T) {
	s := New(192)
	s.AddWord(100, 0b1011|1<<40) // IDs 100, 101, 103 and 140
	for id := uint64(0); id < 192; id++ {
		if want := id == 100 || id == 101 || id == 103 || id == 140; s.Has(id) != want {
			t.Fatalf("Has(%d) = %v after AddWord, want %v", id, !want, want)
		}
	}
	if got := s.Word(100, ^uint64(0)); got != 0b1011|1<<40 {
		t.Fatalf("Word(100) = %#x, want %#x", got, uint64(0b1011|1<<40))
	}
	if got := s.Word(99, 0b11110); got != 0b10110 {
		t.Fatalf("Word(99, 0b11110) = %#b, want 0b10110", got)
	}
	if got := s.Word(128, ^uint64(0)); got != 1<<12 {
		t.Fatalf("aligned Word(128) = %#x, want %#x", got, uint64(1<<12))
	}
	s.RemoveWord(100, 0b1|1<<40) // IDs 100 and 140
	if s.Has(100) || s.Has(140) || !s.Has(101) || !s.Has(103) {
		t.Fatalf("RemoveWord left %#x %#x", s[1], s[2])
	}
}

// TestWordPastTheEnd: a range past the end reads absent, a clear there
// does nothing, and neither grows the set.
func TestWordPastTheEnd(t *testing.T) {
	s := New(64)
	s.Add(63)
	if got := s.Word(60, ^uint64(0)); got != 1<<3 {
		t.Fatalf("Word(60) across the end = %#x, want %#x", got, uint64(1<<3))
	}
	for _, id := range []uint64{64, 1000, 1 << 40} {
		if got := s.Word(id, ^uint64(0)); got != 0 {
			t.Errorf("Word(%d) past the end = %#x, want 0", id, got)
		}
		s.RemoveWord(id, ^uint64(0))
	}
	s.RemoveWord(32, ^uint64(0)) // clears 32..63 and ignores 64..95
	if len(s) != 1 || s[0] != 0 {
		t.Fatalf("clears past the end left %d words, %#x", len(s), s[0])
	}
}

// TestAddWordGrows: AddWord past the end grows the set to cover the
// highest ID it adds, straddling into a word the set did not have.
func TestAddWordGrows(t *testing.T) {
	var s Set
	s.AddWord(1000, 0)
	if len(s) != 0 {
		t.Fatalf("an empty mask grew the set to %d words", len(s))
	}
	s.AddWord(1000, 1<<30|1) // IDs 1000 and 1030, words 15 and 16
	if len(s) < 17 || !s.Has(1000) || !s.Has(1030) {
		t.Fatalf("AddWord(1000) left %d words", len(s))
	}
	for id := uint64(0); id < 64*uint64(len(s)); id++ {
		if want := id == 1000 || id == 1030; s.Has(id) != want {
			t.Fatalf("Has(%d) = %v after growth, want %v", id, !want, want)
		}
	}
}

// TestAddWordPanicsAtLimit: AddWord refuses, before allocating, a range
// whose highest ID is at or past Limit, even when it starts below.
func TestAddWordPanicsAtLimit(t *testing.T) {
	var s Set
	defer func() {
		if recover() == nil {
			t.Error("AddWord reaching Limit did not panic")
		}
		if len(s) != 0 {
			t.Errorf("refused AddWord grew the set to %d words", len(s))
		}
	}()
	s.AddWord(Limit-8, 1<<8)
}

// TestMask: Mask sets the low n bits and saturates at a full word.
func TestMask(t *testing.T) {
	for n, want := range map[uint64]uint64{0: 0, 1: 1, 3: 0b111, 48: 1<<48 - 1, 64: ^uint64(0), 100: ^uint64(0)} {
		if got := Mask(n); got != want {
			t.Errorf("Mask(%d) = %#x, want %#x", n, got, want)
		}
	}
}
