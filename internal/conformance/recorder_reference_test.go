package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/obs"
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

// referenced is a cache that feeds every access it serves to a per-item
// reference, so a Recorder driving it through Serve is checked against
// the reference on the same accesses.
type referenced struct {
	cachesim.Cache
	ref *itemRecorder
}

func (c referenced) Access(it model.Item) cachesim.Access {
	a := c.Cache.Access(it)
	c.ref.observe(it, a)
	return a
}

// TestRecorderMatchesItemReference: the Recorder, which reads an
// access's lists as runs of a word, classifies every golden shape and
// policy's replay exactly as the per-item reference does, and its
// counts balance: ItemsLoaded − Evictions is the cache's final Len.
// Three inputs each replay the trace: Observe per access; Serve with no
// probe, which records hits in line; and Serve with obs.Counters
// attached, which sends every access through Observe. The goldens hash
// the expanded lists, so they do not see how the Recorder reads the
// runs.
func TestRecorderMatchesItemReference(t *testing.T) {
	inputs := map[string]func(rec *cachesim.Recorder, c cachesim.Cache, tr []model.Item){
		"observe": func(rec *cachesim.Recorder, c cachesim.Cache, tr []model.Item) {
			for _, it := range tr {
				rec.Observe(it, c.Access(it))
			}
		},
		"serve": func(rec *cachesim.Recorder, c cachesim.Cache, tr []model.Item) {
			rec.Serve(c, tr)
		},
		"serve-probed": func(rec *cachesim.Recorder, c cachesim.Cache, tr []model.Item) {
			rec.SetProbe(&obs.Counters{})
			rec.Serve(c, tr)
		},
	}
	for si, s := range goldenShapes() {
		tr := goldenTrace(rand.New(rand.NewSource(int64(300+si))), s.geo, s.universe, 20000)
		for pname, mk := range goldenPolicies(s) {
			for iname, input := range inputs {
				name := fmt.Sprintf("%s/%s/%s", s.name, pname, iname)
				ref := itemRecorder{pristine: map[model.Item]bool{}}
				c := referenced{Cache: mk(), ref: &ref}
				ref.st.Policy = c.Name()
				rec := cachesim.NewRecorder(c.Name(), 0)
				input(rec, c, tr)
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
}
