// Package sweepfixture exercises the sweepsafe analyzer. The directive
// below opts the package into sweep scope; Sweep is a local stand-in
// for the cachesim engine (the analyzer matches worker entry points by
// name within the package under analysis).
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

// noWorker is the stateless worker for sweeps that pool nothing.
func noWorker() struct{} { return struct{}{} }
