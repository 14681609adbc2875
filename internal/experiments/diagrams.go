package experiments

import (
	"context"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/opt"
	"gccache/internal/render"
	"gccache/internal/trace"
)

// Figure1Demo makes the paper's Figure 1 executable: a request to A1
// misses, and the cache loads the subset {A1, A2} of the
// larger-granularity block {A1, A2, A3} below it for one unit of cost.
// We realize it with the exact offline schedule on a 3-item block and
// show that the subset load (not the single item, not the whole block)
// is what the optimum chooses for the continuation A1 A2 A1 A2 …,
// when cache space is too tight to keep A3.
func Figure1Demo() *Report {
	r := &Report{Name: "figure1-demo"}
	geo := model.NewFixed(3) // block {A1, A2, A3} = items {0, 1, 2}
	names := map[model.Item]string{0: "A1", 1: "A2", 2: "A3"}

	// k = 2: the optimum wants A1 and A2 (both re-referenced) but has no
	// room for A3 — exactly Figure 1's subset load.
	tr := trace.Trace{0, 1, 0, 1, 0, 1}
	t := &render.Table{
		Title:   "Figure 1: miss on A1 loads the subset {A1 A2} of block {A1 A2 A3} (k=2)",
		Headers: []string{"t", "request", "action", "cache after"},
	}
	_, sched, err := opt.ExactSchedule(context.Background(), tr, geo, 2)
	if err != nil {
		r.Failf("schedule: %v", err)
		return r
	}
	for i, st := range sched {
		action := "hit"
		if !st.Hit {
			action = "miss, load {"
			for j, l := range st.Load {
				if j > 0 {
					action += " "
				}
				action += names[l]
			}
			action += "}"
		}
		contents := ""
		for j, c := range st.Contents {
			if j > 0 {
				contents += " "
			}
			contents += names[c]
		}
		t.AddRow(i+1, names[tr[i]], action, contents)
	}
	r.Tables = append(r.Tables, t)
	// The headline check: the optimum pays exactly one miss and its first
	// load is the two-item subset.
	if len(sched) == 0 || sched[0].Hit || len(sched[0].Load) != 2 {
		r.Failf("first access should miss and load exactly the {A1, A2} subset, got %+v", sched[0])
	}
	for i := 1; i < len(sched); i++ {
		if !sched[i].Hit {
			r.Failf("access %d should hit after the subset load", i+1)
		}
	}
	r.Notef("items after the first are free (unit block cost), so the optimum loads exactly the subset it has room to exploit — the opportunity Figure 1 illustrates")
	return r
}

// Figure4Demo makes Figure 4 executable: the logical structure of IBLP —
// an item layer in front of a block layer — traced access by access on
// the figure's scenario (a request to A1 populating both layers, with
// the block layer holding the whole block {A1 A2 A3}).
func Figure4Demo() *Report {
	r := &Report{Name: "figure4-demo"}
	geo := model.NewFixed(3)
	names := map[model.Item]string{0: "A1", 1: "A2", 2: "A3", 3: "B1", 4: "B2", 5: "B3"}
	c := core.NewIBLP(2, 3, geo) // i = 2 item slots, b = 3 (one block frame)

	t := &render.Table{
		Title:   "Figure 4: IBLP(i=2, b=3) — item layer over block layer",
		Headers: []string{"t", "request", "outcome", "notes"},
	}
	step := 0
	access := func(it model.Item, note string) cachesim.Access {
		step++
		a := c.Access(it)
		outcome := "miss"
		if a.Hit {
			outcome = "hit"
		}
		t.AddRow(step, names[it], outcome, note)
		return a
	}
	a := access(0, "A1 → item layer; whole block {A1 A2 A3} → block layer")
	if a.Hit || len(a.Loaded()) != 3 {
		r.Failf("first access: want miss loading 3 items, got hit=%v loaded=%v", a.Hit, a.Loaded())
	}
	a = access(1, "A2 served by the block layer (spatial hit), copied to item layer")
	if !a.Hit {
		r.Failf("A2 should hit in the block layer")
	}
	a = access(0, "A1 still in the item layer (temporal hit)")
	if !a.Hit {
		r.Failf("A1 should hit in the item layer")
	}
	a = access(3, "B1 misses: block {B1 B2 B3} replaces block A in the 1-frame block layer")
	if a.Hit {
		r.Failf("B1 should miss")
	}
	a = access(2, "A3 was only in the evicted block frame → miss")
	if a.Hit {
		r.Failf("A3 should miss after block A's eviction")
	}
	a = access(1, "A2 survives in the item layer despite block A's eviction")
	if !a.Hit {
		r.Failf("A2 should still hit via the item layer")
	}
	r.Tables = append(r.Tables, t)
	r.Notef("the two layers serve the two locality types independently: the item layer retains accessed items across block-layer evictions, the block layer turns sibling accesses into hits")
	return r
}
