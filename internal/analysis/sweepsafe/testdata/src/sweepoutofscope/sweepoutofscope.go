// Package sweepoutofscope has no //gclint:sweep directive and is not a
// cachesim/experiments package, so the analyzer must stay silent even
// on shapes it would flag in scope.
package sweepoutofscope

import "sync"

func goroutineLoopVar(jobs []int) {
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			process(i)
		}()
	}
	wg.Wait()
}

func sharedScalar(n int) int {
	total := 0
	Sweep(n, 0, func() struct{} { return struct{}{} }, func(i int, _ struct{}) {
		total += i
	})
	return total
}

func Sweep[W any](n, workers int, newWorker func() W, fn func(i int, w W)) {
	w := newWorker()
	for i := 0; i < n; i++ {
		fn(i, w)
	}
}

func process(int) {}
