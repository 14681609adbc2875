package conformance

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"gccache/internal/cachesim"
	"gccache/internal/faults"
	"gccache/internal/model"
)

// panicAt wraps a Cache so that a fault injector can strike mid-trace:
// the at-th Access calls inj.Step(idx) before serving the request,
// leaving the underlying cache with genuinely half-replayed policy
// state when the injected panic unwinds. Everything else delegates.
type panicAt struct {
	cachesim.Cache
	inj   *faults.Injector
	idx   int
	at    int
	count int
}

func (p *panicAt) Access(it model.Item) cachesim.Access {
	if p.count == p.at {
		p.inj.Step(p.idx)
	}
	p.count++
	return p.Cache.Access(it)
}

// recoversInjected runs f and reports whether it returned normally. It
// recovers an injected panic, leaving f's half-replayed cache behind,
// and re-raises any other panic.
func recoversInjected(f func()) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if _, injected := p.(faults.Injected); !injected {
				panic(p)
			}
		}
	}()
	f()
	return true
}

// TestConformanceResetSurvivesInjectedPanic certifies the pooled-reuse
// contract under faults: a worker panic that abandons a cache mid-trace
// must not leak poisoned state into the retry, because the retry path
// (like every pooled sweep) starts with Reset plus Reseed. Each point of
// a pooled Sweep is retried once after an injected panic, and every
// policy's statistics must be byte-identical to a fault-free run with
// fresh caches.
func TestConformanceResetSurvivesInjectedPanic(t *testing.T) {
	const k, B = 32, 8
	const seed = 11
	geo := model.NewFixed(B)
	wls := conformanceWorkloads(t, B, seed)
	universe := 0
	wnames := make([]string, 0, len(wls))
	for n, tr := range wls {
		wnames = append(wnames, n)
		if u := tr.Universe(); u > universe {
			universe = u
		}
	}
	sort.Strings(wnames)
	mks := builders(k, geo, seed)
	for n, mk := range boundedBuilders(k, geo, seed, universe) {
		mks[n] = mk
	}
	pnames := make([]string, 0, len(mks))
	for n := range mks {
		pnames = append(pnames, n)
	}
	sort.Strings(pnames)

	type cell struct{ pi, wi int }
	cells := make([]cell, 0, len(pnames)*len(wnames))
	for pi := range pnames {
		for wi := range wnames {
			cells = append(cells, cell{pi, wi})
		}
	}

	// Fault-free baseline: a fresh cache per cell.
	want := make([][]byte, len(cells))
	for ci, c := range cells {
		st := replay(t, mks[pnames[c.pi]](), wls[wnames[c.wi]])
		want[ci] = cachesim.AppendStats(nil, st)
	}

	inj := faults.New(faults.Plan{Seed: 5, PanicFrac: 0.3, PanicAttempts: 1})
	scheduled := inj.PanicIndices(len(cells))
	if len(scheduled) == 0 {
		t.Fatal("fault plan scheduled no panics; the test would certify nothing")
	}

	got := make([][]byte, len(cells))
	err := cachesim.Sweep(context.Background(), len(cells), cachesim.SweepOptions{Workers: 4},
		func() []cachesim.Cache { return make([]cachesim.Cache, len(pnames)) },
		func(ci int, pool []cachesim.Cache) {
			c := cells[ci]
			attempt := func() {
				cache := pool[c.pi]
				if cache == nil {
					cache = mks[pnames[c.pi]]()
					pool[c.pi] = cache
				} else {
					cache.Reset()
					if rs, ok := cache.(cachesim.Reseeder); ok {
						rs.Reseed(seed)
					}
				}
				tr := wls[wnames[c.wi]]
				wrapped := &panicAt{Cache: cache, inj: inj, idx: ci, at: len(tr) / 2}
				got[ci] = cachesim.AppendStats(nil, replay(t, wrapped, tr))
			}
			if !recoversInjected(attempt) {
				attempt() // the retry: an injected panic strikes only the first attempt
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range scheduled {
		if n := inj.Attempts(i); n != 2 {
			t.Errorf("scheduled index %d ran %d attempts, want 2 (panic + retry)", i, n)
		}
	}
	for ci := range cells {
		if !bytes.Equal(got[ci], want[ci]) {
			c := cells[ci]
			t.Errorf("%s on %s: pooled run after injected panic diverges from fault-free run",
				pnames[c.pi], wnames[c.wi])
		}
	}
}

// TestConformanceValidatorAfterInjectedPanic replays the retry path
// through the full Definition 1 validator: after a mid-trace panic
// poisons a pooled cache, Reset+Reseed must return it to a state the
// validator certifies as conformant from scratch.
func TestConformanceValidatorAfterInjectedPanic(t *testing.T) {
	const k, B = 16, 8
	const seed = 3
	geo := model.NewFixed(B)
	tr := conformanceWorkloads(t, B, seed)["blockruns"]
	inj := faults.New(faults.Plan{Seed: 9, PanicFrac: 1, PanicAttempts: 1})
	mks := builders(k, geo, seed)
	for n, mk := range boundedBuilders(k, geo, seed, tr.Universe()) {
		mks[n] = mk
	}
	pnames := make([]string, 0, len(mks))
	for n := range mks {
		pnames = append(pnames, n)
	}
	sort.Strings(pnames)
	for pi, pname := range pnames {
		cache := mks[pname]()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: injected panic did not fire", pname)
				}
			}()
			wrapped := &panicAt{Cache: cache, inj: inj, idx: pi, at: len(tr) / 2}
			replay(t, wrapped, tr)
		}()
		cache.Reset()
		if rs, ok := cache.(cachesim.Reseeder); ok {
			rs.Reseed(seed)
		}
		v := cachesim.NewValidator(cache, geo)
		replay(t, v, tr)
		if err := v.Err(); err != nil {
			t.Errorf("%s: validator rejects retry after mid-trace panic: %v", pname, err)
		}
	}
}
