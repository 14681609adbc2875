package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
)

// itemRecorder is the §2 classification written one item at a time: a
// set of pristine items (loaded by a miss on another item, not accessed
// since) updated from the expanded Loaded and Evicted lists, with every
// listed eviction counted, on a hit or a miss.
type itemRecorder struct {
	st       cachesim.Stats
	pristine map[model.Item]bool
}

func (r *itemRecorder) observe(it model.Item, a cachesim.Access) {
	r.st.Accesses++
	for _, x := range a.Evicted() {
		r.st.Evictions++
		delete(r.pristine, x)
	}
	if a.Hit {
		r.st.Hits++
		if r.pristine[it] {
			r.st.SpatialHits++
			delete(r.pristine, it)
		} else {
			r.st.TemporalHits++
		}
		return
	}
	r.st.Misses++
	for _, x := range a.Loaded() {
		r.st.ItemsLoaded++
		if x != it {
			r.pristine[x] = true
		}
	}
	delete(r.pristine, it)
}

// TestRecorderMatchesItemReference: the Recorder, which reads an
// access's lists as runs of a word, classifies every golden shape and
// policy's replay exactly as the per-item reference does, and its
// counts balance: ItemsLoaded − Evictions is the cache's final Len.
// The goldens hash the expanded lists, so they do not see how the
// Recorder reads the runs.
func TestRecorderMatchesItemReference(t *testing.T) {
	for si, s := range goldenShapes() {
		tr := goldenTrace(rand.New(rand.NewSource(int64(300+si))), s.geo, s.universe, 20000)
		for pname, mk := range goldenPolicies(s) {
			name := fmt.Sprintf("%s/%s", s.name, pname)
			c := mk()
			rec := cachesim.NewRecorder(c.Name(), 0)
			ref := itemRecorder{st: cachesim.Stats{Policy: c.Name()}, pristine: map[model.Item]bool{}}
			for _, it := range tr {
				a := c.Access(it)
				rec.Observe(it, a)
				ref.observe(it, a)
			}
			got := rec.Stats()
			if got != ref.st {
				t.Errorf("%s: Recorder %#v, per-item reference %#v", name, got, ref.st)
			}
			if net := got.ItemsLoaded - got.Evictions; net != int64(c.Len()) {
				t.Errorf("%s: ItemsLoaded − Evictions = %d, Len() = %d", name, net, c.Len())
			}
		}
	}
}
