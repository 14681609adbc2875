package opt

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"gccache/internal/model"
	"gccache/internal/trace"
)

func randInstance(rng *rand.Rand) (trace.Trace, model.Geometry, int) {
	B := 2 + rng.Intn(2)
	nBlocks := 3 + rng.Intn(2)
	g := model.NewFixed(B)
	universe := B * nBlocks
	n := 12 + rng.Intn(10)
	k := 2 + rng.Intn(4)
	tr := make(trace.Trace, n)
	for i := range tr {
		tr[i] = model.Item(rng.Intn(universe))
	}
	return tr, g, k
}

// solve runs Exact to completion from scratch and returns the optimum.
func solve(tr trace.Trace, g model.Geometry, k int) (int64, error) {
	res, _, err := Exact(context.Background(), tr, g, k, nil)
	return res.Incumbent, err
}

func TestExactCtxDeadlineReturnsIncumbentAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dead, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	for round := 0; round < 20; round++ {
		tr, g, k := randInstance(rng)
		opt, err := solve(tr, g, k)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := Exact(dead, tr, g, k, nil)
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("round %d: err = %v, want ErrDeadline", round, err)
		}
		if res.Exact {
			t.Fatalf("round %d: deadline run claims exactness", round)
		}
		if res.Lower > opt || res.Incumbent < opt {
			t.Fatalf("round %d: incumbent %d / lower %d do not bracket optimum %d",
				round, res.Incumbent, res.Lower, opt)
		}
		// The incumbent must be achievable: verify via the schedule variant.
		sres, steps, serr := ExactSchedule(dead, tr, g, k)
		if !errors.Is(serr, ErrDeadline) {
			t.Fatalf("round %d: schedule err = %v", round, serr)
		}
		cost, verr := VerifySchedule(tr, g, k, steps)
		if verr != nil {
			t.Fatalf("round %d: anytime schedule illegal: %v", round, verr)
		}
		if cost != sres.Incumbent {
			t.Fatalf("round %d: schedule cost %d != incumbent %d", round, cost, sres.Incumbent)
		}
		// Without a deadline the schedule is certified and verifies at
		// the optimum.
		sres, steps, serr = ExactSchedule(context.Background(), tr, g, k)
		if serr != nil || !sres.Exact || sres.Incumbent != opt || len(steps) != len(tr) {
			t.Fatalf("round %d: completed schedule res=%+v steps=%d err=%v, want exact %d", round, sres, len(steps), serr, opt)
		}
		if cost, verr := VerifySchedule(tr, g, k, steps); verr != nil || cost != opt {
			t.Fatalf("round %d: completed schedule verifies at %d (err %v), want %d", round, cost, verr, opt)
		}
	}
}

// stepsCtx cancels itself after a given number of Err calls — a
// deterministic way to stop the solver mid-trace.
type stepsCtx struct {
	context.Context
	remaining int
}

func (c *stepsCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestExactResumeCtxMatchesUninterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 20; round++ {
		tr, g, k := randInstance(rng)
		// An uninterrupted solve completes and certifies its value.
		full, _, err := Exact(context.Background(), tr, g, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Exact || full.Lower != full.Incumbent || full.Steps != len(tr) {
			t.Fatalf("round %d: completed solve = %+v, want Exact with Lower == Incumbent and Steps == %d", round, full, len(tr))
		}
		want := full.Incumbent
		// Chop the solve into single-step slices via checkpoints; the
		// final certified value must match, proving resume loses nothing.
		var ck *Checkpoint
		var res Anytime
		for hops := 0; ; hops++ {
			if hops > len(tr)+2 {
				t.Fatalf("round %d: resume loop did not converge", round)
			}
			res, ck, err = Exact(&stepsCtx{Context: context.Background(), remaining: 1}, tr, g, k, ck)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("round %d: %v", round, err)
			}
			// Round-trip every intermediate checkpoint through its
			// snapshot encoding, as a killed process would.
			hash := InstanceHash(tr, g, k)
			ck2, cerr := CheckpointFromSnapshot(ck.Snapshot(hash), hash)
			if cerr != nil {
				t.Fatalf("round %d: snapshot round-trip: %v", round, cerr)
			}
			ck = ck2
		}
		if !res.Exact || res.Incumbent != want {
			t.Fatalf("round %d: resumed solve = %+v, want exact %d", round, res, want)
		}
	}
}

func TestCheckpointSnapshotRejectsWrongInstance(t *testing.T) {
	tr := trace.Trace{0, 1, 2, 3}
	g := model.NewFixed(2)
	hash := InstanceHash(tr, g, 2)
	ck := &Checkpoint{Step: 2, Frontier: map[uint32]int64{3: 1, 5: 2}}
	snap := ck.Snapshot(hash)
	if _, err := CheckpointFromSnapshot(snap, hash+1); err == nil {
		t.Error("mismatched instance hash accepted")
	}
	got, err := CheckpointFromSnapshot(snap, hash)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 2 || len(got.Frontier) != 2 || got.Frontier[3] != 1 || got.Frontier[5] != 2 {
		t.Errorf("round trip lost state: %+v", got)
	}
	snap.Kind = "other"
	if _, err := CheckpointFromSnapshot(snap, hash); err == nil {
		t.Error("wrong snapshot kind accepted")
	}
}

func TestInstanceHashDistinguishesInstances(t *testing.T) {
	g := model.NewFixed(2)
	base := InstanceHash(trace.Trace{0, 1, 2}, g, 2)
	if InstanceHash(trace.Trace{0, 1, 2}, g, 2) != base {
		t.Error("hash not deterministic")
	}
	for _, h := range []int64{
		InstanceHash(trace.Trace{0, 1, 3}, g, 2),
		InstanceHash(trace.Trace{0, 1, 2}, g, 3),
		InstanceHash(trace.Trace{0, 1, 2}, model.NewFixed(3), 2),
		InstanceHash(trace.Trace{0, 1}, g, 2),
	} {
		if h == base {
			t.Error("distinct instance hashed equal")
		}
	}
}

func TestExactResumeCtxRejectsBadCheckpoint(t *testing.T) {
	tr := trace.Trace{0, 1, 2}
	g := model.NewFixed(2)
	for _, ck := range []*Checkpoint{
		{Step: -1, Frontier: map[uint32]int64{0: 0}},
		{Step: 4, Frontier: map[uint32]int64{0: 0}},
		{Step: 1, Frontier: nil},
	} {
		if _, _, err := Exact(context.Background(), tr, g, 2, ck); err == nil {
			t.Errorf("checkpoint %+v accepted", ck)
		}
	}
}
