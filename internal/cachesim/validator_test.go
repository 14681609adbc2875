package cachesim

import (
	"strings"
	"testing"

	"gccache/internal/model"
)

// scripted is a cache whose Access returns pre-programmed results,
// used to verify that the Validator catches each class of violation.
type scripted struct {
	script   []Access
	pos      int
	capacity int
	contains func(model.Item) bool
	length   func() int
}

func (s *scripted) Name() string { return "scripted" }
func (s *scripted) Access(model.Item) Access {
	a := s.script[s.pos]
	s.pos++
	return a
}
func (s *scripted) Contains(it model.Item) bool {
	if s.contains != nil {
		return s.contains(it)
	}
	return true
}
func (s *scripted) Len() int {
	if s.length != nil {
		return s.length()
	}
	return -1
}
func (s *scripted) Capacity() int { return s.capacity }
func (s *scripted) Reset()        {}

func expectViolation(t *testing.T, v *Validator, wantSubstr string) {
	t.Helper()
	err := v.Err()
	if err == nil {
		t.Fatalf("expected violation containing %q, got none", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("violation %q does not mention %q", err, wantSubstr)
	}
}

func TestValidatorCatchesFalseHit(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, script: []Access{{Hit: true}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "hit=true")
}

func TestValidatorCatchesLoadOnHit(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4,
		length: func() int { return 1 },
		script: []Access{
			{net: netOf([]model.Item{1}, nil)},
			{Hit: true, net: netOf([]model.Item{2}, nil)},
		}}
	v := NewValidator(s, g)
	v.Access(1)
	if v.Err() != nil {
		t.Fatalf("clean access flagged: %v", v.Err())
	}
	v.Access(1)
	expectViolation(t, v, "loads on a hit")
}

func TestValidatorCatchesMissingSelfLoad(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 1 },
		script: []Access{{net: netOf([]model.Item{2}, nil)}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "missing requested item")
}

func TestValidatorCatchesForeignBlockLoad(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 2 },
		script: []Access{{net: netOf([]model.Item{1, 9}, nil)}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "outside requested block")
}

func TestValidatorCatchesPhantomEviction(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 1 },
		script: []Access{{net: netOf([]model.Item{1}, []model.Item{7})}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "was not present")
}

func TestValidatorCatchesSelfEviction(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 0 },
		script: []Access{{net: netOf([]model.Item{1}, []model.Item{1})}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "evicted by its own access")
}

func TestValidatorCatchesCapacityOverflow(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 1, length: func() int { return 2 },
		script: []Access{{net: netOf([]model.Item{1, 2}, nil)}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "exceed capacity")
}

func TestValidatorCatchesLenDisagreement(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 5 },
		script: []Access{{net: netOf([]model.Item{1}, nil)}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "disagrees with shadow")
}

func TestValidatorCatchesContainsLie(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 1 },
		contains: func(model.Item) bool { return false },
		script:   []Access{{net: netOf([]model.Item{1}, nil)}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "right after it was served")
}

func TestValidatorCatchesDuplicateLoad(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 2 },
		script: []Access{{net: netOf([]model.Item{1, 2, 1}, nil)}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "Loaded lists an item twice")
}

func TestValidatorCatchesDuplicateEviction(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 2 },
		script: []Access{
			{net: netOf([]model.Item{1, 2}, nil)},
			{net: netOf([]model.Item{5}, []model.Item{2, 2})},
		}}
	s.contains = func(it model.Item) bool { return it != 2 || s.pos < 2 }
	v := NewValidator(s, g)
	v.Access(1)
	if v.Err() != nil {
		t.Fatalf("clean access flagged: %v", v.Err())
	}
	v.Access(5)
	expectViolation(t, v, "evicted 2 was not present")
}

// A loaded sibling the cache does not hold was never really loaded.
func TestValidatorCatchesLoadedNotContained(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 2 },
		contains: func(it model.Item) bool { return it == 1 },
		script:   []Access{{net: netOf([]model.Item{1, 2}, nil)}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "loaded 2 but Contains(2) is false")
}

func TestValidatorCatchesEvictedStillContained(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 2 },
		script: []Access{
			{net: netOf([]model.Item{1, 2}, nil)},
			{net: netOf([]model.Item{5}, []model.Item{2})},
		}}
	v := NewValidator(s, g)
	v.Access(1)
	v.Access(5)
	expectViolation(t, v, "evicted 2 but Contains(2) is true")
}

func TestValidatorLatchesFirstError(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, script: []Access{{Hit: true}, {Hit: true}}}
	v := NewValidator(s, g)
	v.Access(1)
	first := v.Err()
	v.Access(2)
	if v.Err() != first {
		t.Error("error not latched")
	}
}
