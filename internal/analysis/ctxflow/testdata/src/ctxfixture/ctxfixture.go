// Package ctxfixture exercises the ctxflow analyzer.
package ctxfixture

import "context"

func RunAll(n int) { // want `exported RunAll looks like a blocking entry point`
	for i := 0; i < n; i++ {
		step(i)
	}
}

func RunTwinned(n int) { // want `exported RunTwinned looks like a blocking entry point`
	_ = n
}

func RunTwinnedCtx(ctx context.Context, n int) { // clean: takes ctx itself
	_ = ctx
	_ = n
}

func RunStepCtx(n int) { // want `exported RunStepCtx looks like a blocking entry point`
	_ = n
}

func SweepGrid(ctx context.Context, n int) { // clean: takes ctx itself
	_ = ctx
	_ = n
}

func Runtime() int { // clean: "Run" ends at a word boundary, this is not an entry point
	return 0
}

// RunCount merely reads a counter and returns.
//
//gclint:ctxok accessor; returns immediately
func RunCount() int {
	return 0
}

func RunDetached(ctx context.Context, n int) {
	step(n)
	helper(context.Background()) // want `RunDetached already receives a context\.Context; pass it down instead of context\.Background`
	helper(ctx)
}

func helper(ctx context.Context) {
	_ = ctx
}

func step(i int) { _ = i }

type job struct {
	ctx context.Context // want `struct job stores a context\.Context`
	n   int
}

type scoped struct {
	ctx context.Context //gclint:ctxok request-scoped; value dies with the request
	n   int
}

type engine struct{ n int }

func (e *engine) Replay() { // want `exported Replay looks like a blocking entry point`
	_ = e.n
}

func (e *engine) ReplayCtx(ctx context.Context) {
	_ = ctx
	_ = e.n
}

func (e *engine) ReplayFrom(pos int) { // want `exported ReplayFrom looks like a blocking entry point`
	_ = pos
}
