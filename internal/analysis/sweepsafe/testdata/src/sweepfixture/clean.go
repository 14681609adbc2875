package sweepfixture

import (
	"sync"
	"sync/atomic"
)

// goroutineArg passes the loop variable as an argument — the sanctioned
// shape.
func goroutineArg(jobs []int) {
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			process(i)
		}(i)
	}
	wg.Wait()
}

// perIndexSlot writes only the slot owned by the callback's point
// index.
func perIndexSlot(n int) []int {
	out := make([]int, n)
	Sweep(n, 0, func() int { return 0 }, func(i int, w int) {
		out[i] = i * i
	})
	return out
}

// perIndexStructField writes through a selector rooted at the per-index
// slot (cells[i].field), also sanctioned.
func perIndexStructField(n int) int {
	type cell struct{ value int }
	cells := make([]cell, n)
	Sweep(n, 0, func() int { return 0 }, func(i int, w int) {
		cells[i].value = i
	})
	return len(cells)
}

// perWorkerState mutates only the worker's own pooled state.
func perWorkerState(n int) {
	type worker struct{ scratch []int }
	Sweep(n, 0, func() *worker { return &worker{} }, func(i int, w *worker) {
		w.scratch = append(w.scratch, i)
	})
}

// localOnly writes callback-local variables freely.
func localOnly(n int) {
	Sweep(n, 0, noWorker, func(i int, _ struct{}) {
		sum := 0
		for j := 0; j < i; j++ {
			sum += j
		}
		process(sum)
	})
}

// suppressed vouches for an externally synchronized write (here an
// atomic counter read-modify-write done under a mutex would be typical;
// the directive is the analyzer's escape hatch).
func suppressed(n int) int {
	var mu sync.Mutex
	worst := 0
	Sweep(n, 0, noWorker, func(i int, _ struct{}) {
		mu.Lock()
		if i > worst {
			worst = i //gclint:sharedok mutex-guarded running maximum
		}
		mu.Unlock()
	})
	return worst
}

// atomicCounter uses atomic operations (method calls, not assignments)
// — nothing to flag.
func atomicCounter(n int) int64 {
	var count atomic.Int64
	Sweep(n, 0, noWorker, func(i int, _ struct{}) {
		count.Add(1)
	})
	return count.Load()
}
