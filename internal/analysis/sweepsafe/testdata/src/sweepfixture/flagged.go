package sweepfixture

import "sync"

// goroutineLoopVar spawns goroutines that read the loop variable from
// the enclosing scope instead of receiving it as an argument.
func goroutineLoopVar(jobs []int) {
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			process(i) // want `goroutine captures loop variable i`
		}()
	}
	wg.Wait()
}

// goroutineRangeValue captures a range value variable.
func goroutineRangeValue(jobs []int) {
	done := make(chan struct{}, len(jobs))
	for _, j := range jobs {
		go func() {
			process(j) // want `goroutine captures loop variable j`
			done <- struct{}{}
		}()
	}
	for range jobs {
		<-done
	}
}

// sharedScalar folds into a captured accumulator from worker callbacks:
// a data race, and even if synchronized the fold order would vary run to
// run.
func sharedScalar(n int) int {
	total := 0
	Sweep(n, 0, noWorker, func(i int, _ struct{}) {
		total += i // want `Sweep worker writes captured variable total`
	})
	return total
}

// sharedMap writes a captured map from workers: concurrent map writes
// race even on distinct keys.
func sharedMap(n int) map[int]int {
	out := make(map[int]int, n)
	Sweep(n, 0, func() int { return 0 }, func(i int, w int) {
		out[i] = i * i // want `Sweep worker writes captured variable out`
	})
	return out
}

// wrongSlot writes an element slot not derived from the callback's
// point-index parameter: workers can collide on the same slot.
func wrongSlot(n int) []int {
	out := make([]int, n)
	next := 0
	Sweep(n, 0, func() int { return 0 }, func(i int, w int) {
		out[next] = i // want `Sweep worker writes out\[...\] at an index not derived from its point-index parameter`
		next++        // want `Sweep worker writes captured variable next`
	})
	return out
}

func process(int) {}
