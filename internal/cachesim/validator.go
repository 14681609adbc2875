package cachesim

import (
	"fmt"

	"gccache/internal/model"
)

// Validator wraps a Cache and checks, on every access, that the policy's
// observable behaviour is a legal execution of the paper's Definition 1:
//
//   - a hit is reported iff the item was present (per the validator's
//     shadow copy of the contents), and no loads accompany it (loads cost
//     a unit; hits are free);
//   - on a miss, the loaded set contains the requested item and lies
//     entirely within the requested item's block;
//   - Loaded and Evicted are net changes (see Access): each loaded item
//     was absent and is present afterwards, each evicted one the reverse,
//     and neither list repeats an item;
//   - the requested item is never evicted by its own access (demand
//     caching);
//   - the contents never exceed the declared capacity, and the wrapped
//     cache's Contains/Len agree with the shadow copy.
//
// The first violation is latched in Err; subsequent accesses pass
// through. Wrap any policy with NewValidator in tests to certify it
// against the model.
type Validator struct {
	inner    Cache
	geo      model.Geometry
	shadow   map[model.Item]struct{}
	err      error
	accesses int64
}

var _ Cache = (*Validator)(nil)

// NewValidator wraps c for model-conformance checking under geo.
func NewValidator(c Cache, geo model.Geometry) *Validator {
	return &Validator{
		inner:  c,
		geo:    geo,
		shadow: make(map[model.Item]struct{}, c.Capacity()),
	}
}

// Err returns the first recorded violation, or nil.
func (v *Validator) Err() error { return v.err }

func (v *Validator) failf(format string, args ...any) {
	if v.err == nil {
		v.err = fmt.Errorf("cachesim: access %d (%s): %s",
			v.accesses, v.inner.Name(), fmt.Sprintf(format, args...))
	}
}

// Name implements Cache.
func (v *Validator) Name() string { return v.inner.Name() }

// Access implements Cache, checking the inner policy's step.
func (v *Validator) Access(it model.Item) Access {
	v.accesses++
	_, wasPresent := v.shadow[it]
	before := len(v.shadow)
	a := v.inner.Access(it)
	loaded, evicted := a.Loaded(), a.Evicted()

	if a.Hit != wasPresent {
		v.failf("hit=%v but item %d present=%v", a.Hit, it, wasPresent)
	}
	if a.Hit && len(loaded) > 0 {
		v.failf("loads on a hit: %v", loaded)
	}
	if !a.Hit {
		blk := v.geo.BlockOf(it)
		foundSelf := false
		for _, l := range loaded {
			if l == it {
				foundSelf = true
			}
			if v.geo.BlockOf(l) != blk {
				v.failf("loaded %d outside requested block %d", l, blk)
			}
			if _, dup := v.shadow[l]; dup {
				v.failf("loaded %d already present (not a net change)", l)
			}
			// it itself is checked below, once the shadow is updated.
			if l != it && !v.inner.Contains(l) {
				v.failf("loaded %d but Contains(%d) is false", l, l)
			}
		}
		if !foundSelf {
			v.failf("loaded set %v missing requested item %d", loaded, it)
		}
	}
	for _, e := range evicted {
		if e == it {
			v.failf("requested item %d evicted by its own access", it)
		}
		if _, ok := v.shadow[e]; !ok {
			v.failf("evicted %d was not present (not a net change)", e)
		}
		if v.inner.Contains(e) {
			v.failf("evicted %d but Contains(%d) is true", e, e)
		}
		delete(v.shadow, e)
	}
	for _, l := range loaded {
		v.shadow[l] = struct{}{}
	}
	// A repeat in Evicted fails "not present" above; one in Loaded
	// leaves the shadow short.
	if len(v.shadow) != before-len(evicted)+len(loaded) {
		v.failf("Loaded lists an item twice: %v", loaded)
	}
	if _, ok := v.shadow[it]; !ok {
		v.failf("requested item %d not resident after its access (demand caching)", it)
	}
	if len(v.shadow) > v.inner.Capacity() {
		v.failf("contents %d exceed capacity %d", len(v.shadow), v.inner.Capacity())
	}
	// Cross-check the wrapped cache's own view.
	if !v.inner.Contains(it) {
		v.failf("Contains(%d) false right after it was served", it)
	}
	if got, want := v.inner.Len(), len(v.shadow); got != want {
		v.failf("Len()=%d disagrees with shadow %d", got, want)
	}
	return a
}

// Contains implements Cache.
func (v *Validator) Contains(it model.Item) bool { return v.inner.Contains(it) }

// Len implements Cache.
func (v *Validator) Len() int { return v.inner.Len() }

// Capacity implements Cache.
func (v *Validator) Capacity() int { return v.inner.Capacity() }

// Reset implements Cache.
func (v *Validator) Reset() {
	v.inner.Reset()
	clear(v.shadow)
}
