package hotfixture

import "context"

// replayCtx stands in for the cancellation-aware replay loops behind
// cachesim.Replay: a hot loop that takes its context as an interface
// parameter.
func replayCtx(ctx context.Context) error { return ctx.Err() }

// stampedCtx is a concrete context wrapper, the shape that tempts
// callers into per-access boxing.
type stampedCtx struct{ context.Context }

// ctxArgBoxing passes a concrete context wrapper to an interface
// parameter: the compiler boxes it at every call, which is exactly the
// allocation the cancellation layer must keep off the replay path.
//
//gclint:hotpath
func ctxArgBoxing(c stampedCtx) error {
	return replayCtx(c) // want `hot path boxes argument into interface parameter context.Context`
}

// ctxValueBoxing boxes the lookup key into Value's any parameter.
//
//gclint:hotpath
func ctxValueBoxing(ctx context.Context, epoch int) any {
	return ctx.Value(epoch) // want `hot path boxes argument into interface parameter`
}

// ctxPolling is the sanctioned cancellation shape: the context arrives
// already as an interface and the loop only polls Err on a stride —
// no boxing, nothing to report.
//
//gclint:hotpath
func ctxPolling(ctx context.Context, accesses int) error {
	for i := 0; i < accesses; i++ {
		if i&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}
