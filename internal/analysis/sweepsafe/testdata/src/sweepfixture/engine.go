// Package sweepfixture exercises the sweepsafe analyzer. The directive
// below opts the package into sweep scope; Sweep, SweepHardened and
// SweepCheckpointed are local stand-ins for the cachesim engine (the
// analyzer matches worker entry points by name within the package under
// analysis).
//
//gclint:sweep
package sweepfixture

// Sweep mimics cachesim.Sweep: fn(i, w) with a per-worker state value.
func Sweep[W any](n, workers int, newWorker func() W, fn func(i int, w W)) {
	w := newWorker()
	for i := 0; i < n; i++ {
		fn(i, w)
	}
}

// SweepHardened mimics the fault-tolerant engine variant: same worker
// callback contract, so the same shared-state rules apply.
func SweepHardened[W any](n, workers int, newWorker func() W, fn func(i int, w W)) []int {
	w := newWorker()
	for i := 0; i < n; i++ {
		fn(i, w)
	}
	return nil
}

// SweepCheckpointed mimics the resumable engine variant.
func SweepCheckpointed[W any](n, workers int, newWorker func() W, fn func(i int, w W) []byte) [][]byte {
	out := make([][]byte, n)
	w := newWorker()
	for i := 0; i < n; i++ {
		out[i] = fn(i, w)
	}
	return out
}

// noWorker is the stateless worker for sweeps that pool nothing.
func noWorker() struct{} { return struct{}{} }
