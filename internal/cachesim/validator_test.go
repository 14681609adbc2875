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
			{Loaded: []model.Item{1}},
			{Hit: true, Loaded: []model.Item{2}},
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
		script: []Access{{Loaded: []model.Item{2}}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "missing requested item")
}

func TestValidatorCatchesForeignBlockLoad(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 2 },
		script: []Access{{Loaded: []model.Item{1, 9}}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "outside requested block")
}

func TestValidatorCatchesPhantomEviction(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 1 },
		script: []Access{{Loaded: []model.Item{1}, Evicted: []model.Item{7}}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "was not present")
}

func TestValidatorCatchesSelfEviction(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 0 },
		script: []Access{{Loaded: []model.Item{1}, Evicted: []model.Item{1}}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "evicted by its own access")
}

func TestValidatorCatchesCapacityOverflow(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 1, length: func() int { return 2 },
		script: []Access{{Loaded: []model.Item{1, 2}}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "exceed capacity")
}

func TestValidatorCatchesLenDisagreement(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 5 },
		script: []Access{{Loaded: []model.Item{1}}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "disagrees with shadow")
}

func TestValidatorCatchesContainsLie(t *testing.T) {
	g := model.NewFixed(4)
	s := &scripted{capacity: 4, length: func() int { return 1 },
		contains: func(model.Item) bool { return false },
		script:   []Access{{Loaded: []model.Item{1}}}}
	v := NewValidator(s, g)
	v.Access(1)
	expectViolation(t, v, "right after it was served")
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

// netChanges nets through a zero Reconciler, the map-scratch path that
// accepts any item ID.
func netChanges(loaded, evicted []model.Item) ([]model.Item, []model.Item) {
	var r Reconciler
	return r.NetChanges(loaded, evicted)
}

func TestNetChanges(t *testing.T) {
	l, e := netChanges(
		[]model.Item{1, 2, 3},
		[]model.Item{2, 9},
	)
	if len(l) != 2 || l[0] != 1 || l[1] != 3 {
		t.Errorf("netLoaded = %v", l)
	}
	if len(e) != 1 || e[0] != 9 {
		t.Errorf("netEvicted = %v", e)
	}
	l, e = netChanges([]model.Item{1, 2, 3}, []model.Item{3, 4})
	if len(l) != 2 || l[0] != 1 || l[1] != 2 || len(e) != 1 || e[0] != 4 {
		t.Errorf("netChanges = %v, %v", l, e)
	}
}

func TestNetChangesNoOverlap(t *testing.T) {
	l, e := netChanges([]model.Item{1}, []model.Item{2})
	if len(l) != 1 || len(e) != 1 {
		t.Errorf("no-overlap case mangled: %v %v", l, e)
	}
	l, e = netChanges(nil, []model.Item{2})
	if l != nil || len(e) != 1 {
		t.Errorf("nil loaded: %v %v", l, e)
	}
	l, e = netChanges([]model.Item{1}, nil)
	if len(l) != 1 || e != nil {
		t.Errorf("nil evicted: %v %v", l, e)
	}
}

func TestNetChangesFullCancellation(t *testing.T) {
	l, e := netChanges([]model.Item{4, 5}, []model.Item{5, 4})
	if len(l) != 0 || len(e) != 0 {
		t.Errorf("full cancellation: %v %v", l, e)
	}
}
