package opt

import (
	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/trace"
)

// RecordSchedule replays tr through a live policy and records its
// actions as a Step schedule (without Contents, which VerifySchedule
// does not need). Passing the result to VerifySchedule gives an
// independent certification that the policy's execution is legal under
// the model — the same property cachesim.Validator checks online, proved
// here through a disjoint code path.
func RecordSchedule(c cachesim.Cache, tr trace.Trace) []Step {
	steps := make([]Step, len(tr))
	for i, it := range tr {
		a := c.Access(it)
		st := Step{Hit: a.Hit}
		if l := a.Loaded(); len(l) > 0 {
			st.Load = append([]model.Item(nil), l...)
		}
		if e := a.Evicted(); len(e) > 0 {
			st.Evict = append([]model.Item(nil), e...)
		}
		steps[i] = st
	}
	return steps
}

// PolicyCost replays tr through c and certifies the execution, returning
// the verified miss count. It errors if the policy's observable behavior
// is not a legal GC execution.
func PolicyCost(c cachesim.Cache, geo model.Geometry, tr trace.Trace) (int64, error) {
	c.Reset()
	steps := RecordSchedule(c, tr)
	return VerifySchedule(tr, geo, c.Capacity(), steps)
}
