package concurrent

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/trace"
)

// This file is the batched serving engine. Where concurrent callers of
// Sharded.Access pay one lock acquisition per access, the Engine routes
// requests through lock-free per-(producer, shard) SPSC rings consumed
// by one persistent worker goroutine per shard:
//
//	producer p              lanes[p][s]                worker s
//	┌───────────────┐   data ────────────▶   ┌──────────────────────┐
//	│ partition the │   ring  [b][b][ ][ ]   │ pop → one TryLock →  │
//	│ next chunk by │                        │ Access+Observe batch │
//	│ shard (count- │   free ◀────────────   │ → recycle the buffer │
//	│ ing sort)     │   ring  [ ][ ][b][b]   └──────────────────────┘
//	└───────────────┘
//
// Each producer partitions one BatchSize-request chunk by shard in a
// single pass and touches each ring at most once per chunk; each worker
// serves a popped batch under a single lock acquisition. The bounded
// rings are the backpressure (a producer whose ring is full spins until
// the worker catches up), the free rings recycle batch buffers without a
// shared lock, and cancellation follows the sweep engine's claimed-chunk
// invariant: a batch a worker has started is processed to completion,
// everything still queued or unrouted is abandoned, and ctx's error is
// returned iff requests were dropped.

// BatchConfig tunes the batched replay engine. The zero value selects
// the defaults.
type BatchConfig struct {
	// BatchSize is the number of requests a producer routes in one
	// partition pass (default 256). Larger chunks amortize ring and lock
	// traffic further at the cost of coarser cancellation and more
	// reordering between streams.
	BatchSize int
	// QueueDepth is the number of batches buffered per producer→shard
	// ring (default 4, rounded up to a power of two). Producers routing
	// to a full ring spin-wait — the backpressure that bounds engine
	// memory at O(producers · shards · QueueDepth · BatchSize) regardless
	// of trace length.
	QueueDepth int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.BatchSize < 1 {
		c.BatchSize = 256
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 4
	}
	return c
}

// lane is one producer→shard channel pair: data carries filled batches
// toward the shard's worker, free carries spent buffers back to the
// producer. Both rings are SPSC by construction — the lane belongs to
// exactly one producer slot and exactly one worker.
type lane struct {
	data batchRing
	free batchRing
}

// producerState is one producer slot's routing scratch and progress
// counters. Only the slot's current producer goroutine touches the
// scratch; pushed is published to the replay coordinator through the
// done generation counter.
type producerState struct {
	row int // index into Engine.lanes
	// done publishes the last replay generation this slot has finished
	// producing for (see Engine.gen).
	done atomic.Uint64
	// pushed counts batches enqueued during the current replay. Plain
	// field: written before done.Store, read after done.Load.
	pushed uint64
	// Partition scratch, reused across chunks (see routeChunk).
	idxs    []uint32       // shard index per chunk position
	counts  []uint32       // per-shard occupancy, zeroed after each chunk
	touched []uint32       // shards hit by the current chunk
	bufs    [][]model.Item // per-shard batch under construction
	stage   []model.Item   // staging chunk for ReplayStream
	_       [64]byte       // keep producer slots off each other's lines
}

// workerState is one worker's progress counters, padded so workers
// never contend on a shared cache line.
type workerState struct {
	popped  atomic.Uint64 // batches taken from rings (processed or dropped)
	dropped uint64        // batches recycled unprocessed after cancellation
	_       [48]byte
}

// Engine is a persistent batched replay engine over a Sharded cache:
// construction allocates the rings and starts the worker (and producer)
// goroutines once, after which any number of Replay / ReplayStream
// calls run allocation-free in the steady state. An Engine serves one
// replay at a time; Close stops the goroutines (safe to call once the
// last replay has returned).
type Engine struct {
	s   *Sharded
	cfg BatchConfig

	lanes     [][]lane // [producer][worker]
	producers []producerState
	workers   []workerState

	gen    atomic.Uint64 // replay generation; bumped to release producers
	closed atomic.Bool
	busy   atomic.Bool
	wg     sync.WaitGroup

	// Per-replay state, written by the coordinator before the generation
	// bump (or used only by the caller-side producer).
	streams   []trace.Trace
	replayCtx context.Context //gclint:ctxok per-replay handoff: coordinator writes before the gen bump, producer goroutines read; cleared when the replay drains
	cancelled atomic.Bool

	errMu    sync.Mutex
	firstErr error
}

// NewEngine builds a persistent batched engine over s with the given
// number of producer slots. producers bounds the parallelism of
// Replay's stream production (streams are dealt round-robin across the
// slots) and sizes the ring matrix; ReplayStream always produces from
// the caller through slot 0.
func NewEngine(s *Sharded, producers int, cfg BatchConfig) (*Engine, error) {
	if s == nil {
		return nil, fmt.Errorf("concurrent: nil sharded cache")
	}
	if producers < 1 {
		return nil, fmt.Errorf("concurrent: producer count %d < 1", producers)
	}
	cfg = cfg.withDefaults()
	np, nw := producers, len(s.shards)
	e := &Engine{s: s, cfg: cfg}
	e.lanes = make([][]lane, np)
	for p := range e.lanes {
		e.lanes[p] = make([]lane, nw)
		for w := range e.lanes[p] {
			ln := &e.lanes[p][w]
			ln.data.init(cfg.QueueDepth)
			// A lane circulates at most cap(data)+2 buffers (a full data
			// ring + the producer's in-hand + the worker's in-hand), so a
			// free ring of that capacity never drops one — the steady
			// state stays allocation free.
			ln.free.init(len(ln.data.slots) + 2)
		}
	}
	e.producers = make([]producerState, np)
	for i := range e.producers {
		ps := &e.producers[i]
		ps.row = i
		ps.idxs = make([]uint32, cfg.BatchSize)
		ps.counts = make([]uint32, nw)
		ps.touched = make([]uint32, 0, nw)
		ps.bufs = make([][]model.Item, nw)
		ps.stage = make([]model.Item, 0, cfg.BatchSize)
	}
	e.workers = make([]workerState, nw)
	e.wg.Add(nw + np)
	for w := 0; w < nw; w++ {
		go e.workerLoop(w)
	}
	for p := 0; p < np; p++ {
		go e.producerLoop(p)
	}
	return e, nil
}

// Close stops the engine's goroutines and waits for them to exit. It
// must not be called while a replay is in flight; calling it again is a
// no-op.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	e.wg.Wait()
}

// begin resets the per-replay state. Safe because all goroutines are
// quiescent between replays: producers wait on gen, workers find every
// ring empty, and the previous replay's counter reads are sequenced
// through the popped/done atomics.
func (e *Engine) begin(ctx context.Context) error {
	if e.closed.Load() {
		return fmt.Errorf("concurrent: Replay on a closed Engine")
	}
	if !e.busy.CompareAndSwap(false, true) {
		return fmt.Errorf("concurrent: concurrent Replay calls on one Engine")
	}
	e.replayCtx = ctx
	e.cancelled.Store(false)
	e.firstErr = nil
	e.streams = nil
	for i := range e.producers {
		e.producers[i].pushed = 0
	}
	for i := range e.workers {
		e.workers[i].popped.Store(0)
		e.workers[i].dropped = 0
	}
	return nil
}

// fail records the first production error and flips the cancellation
// flag workers poll, so queued batches are recycled instead of served.
func (e *Engine) fail(err error) {
	e.cancelled.Store(true)
	e.errMu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.errMu.Unlock()
}

// Replay replays streams through the engine and returns the merged
// statistics (cumulative for the underlying Sharded).
// Streams are dealt round-robin across the producer slots. A single
// stream replays deterministically: its one producer keeps each shard's
// subsequence in trace order and shards are independent, so the
// statistics equal a sequential Sharded.Access replay. The error is nil
// when every request was replayed and ctx's error when cancellation cut
// the replay short; the statistics then cover exactly the batches
// workers had claimed.
func (e *Engine) Replay(ctx context.Context, streams []trace.Trace) (cachesim.Stats, error) {
	if err := e.begin(ctx); err != nil {
		return cachesim.Stats{}, err
	}
	defer e.busy.Store(false)

	e.streams = streams
	gen := e.gen.Add(1)
	var total uint64
	var w spinWait
	for i := range e.producers {
		for e.producers[i].done.Load() != gen {
			w.wait()
		}
		total += e.producers[i].pushed
	}
	e.awaitDrain(total)
	return e.s.Stats(), e.takeErr()
}

// ReplayStream replays a single incremental trace.Source through the
// engine — the O(1)-memory serving path: requests go straight from the
// decoder into the rings, so a trace larger than memory streams through
// without ever materializing. The calling goroutine is the producer
// (slot 0). Cancellation semantics match Replay; a source decode error
// is returned after the requests before it have been replayed.
func (e *Engine) ReplayStream(ctx context.Context, src trace.Source) (cachesim.Stats, error) {
	if err := e.begin(ctx); err != nil {
		return cachesim.Stats{}, err
	}
	defer e.busy.Store(false)

	ps := &e.producers[0]
	stage := ps.stage[:0]
	var perr error
	for src.Next() {
		stage = append(stage, src.Item())
		if len(stage) == e.cfg.BatchSize {
			if perr = e.routeChunk(ctx, ps, stage); perr != nil {
				break
			}
			stage = stage[:0]
		}
	}
	if perr == nil && len(stage) > 0 {
		perr = e.routeChunk(ctx, ps, stage)
	}
	if perr == nil {
		if err := src.Err(); err != nil {
			perr = fmt.Errorf("concurrent: replay source: %w", err)
		}
	}
	if perr != nil {
		e.fail(perr)
	}
	e.awaitDrain(ps.pushed)
	return e.s.Stats(), e.takeErr()
}

// awaitDrain blocks until the workers have taken every pushed batch
// out of the rings (processing or dropping it).
func (e *Engine) awaitDrain(total uint64) {
	var w spinWait
	for {
		var popped uint64
		for i := range e.workers {
			popped += e.workers[i].popped.Load()
		}
		if popped == total {
			return
		}
		w.wait()
	}
}

// takeErr resolves the replay's error under the ctx.Err-iff-dropped
// contract: fail() pairs every cancellation with its error, so firstErr
// is non-nil exactly when requests were dropped (at a producer or,
// via the cancelled flag, in a worker).
func (e *Engine) takeErr() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

// producerLoop is one producer slot's persistent goroutine: it sleeps
// until the coordinator bumps the replay generation, produces its share
// of the streams, and publishes completion through done.
func (e *Engine) producerLoop(p int) {
	defer e.wg.Done()
	ps := &e.producers[p]
	var last uint64
	var idle spinWait
	for {
		g := e.gen.Load()
		if g == last {
			if e.closed.Load() {
				return
			}
			idle.wait()
			continue
		}
		idle.reset()
		last = g
		e.runProducer(ps)
		ps.done.Store(g)
	}
}

// runProducer routes this slot's share of the streams (dealt
// round-robin by index) in BatchSize chunks.
func (e *Engine) runProducer(ps *producerState) {
	ctx := e.replayCtx
	np := len(e.producers)
	for i := ps.row; i < len(e.streams); i += np {
		st := e.streams[i]
		for off := 0; off < len(st); off += e.cfg.BatchSize {
			end := off + e.cfg.BatchSize
			if end > len(st) {
				end = len(st)
			}
			if err := e.routeChunk(ctx, ps, st[off:end]); err != nil {
				e.fail(err)
				return
			}
		}
	}
}

// routeChunk partitions one chunk of at most BatchSize requests by
// shard — a counting sort over shard indices into the slot's reused
// scratch buffers — and pushes each shard's sub-batch into its ring, so
// every ring is touched at most once per chunk. It polls ctx once per
// chunk (the cancellation granularity) and while blocked on a full
// ring (the backpressure point).
//
//gclint:hotpath
func (e *Engine) routeChunk(ctx context.Context, ps *producerState, items []model.Item) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(e.workers) == 1 {
		// Single lane (a 1-shard cache): the partition is the
		// identity, so ship the chunk as one batch.
		return e.sendChunk(ctx, ps, items) //gclint:allowalloc takeBuf's make runs ≤QueueDepth+2 times per lane, then the free ring recycles
	}
	// Pass 1: shard index per item, plus the set of shards touched.
	idxs := ps.idxs[:len(items)]
	touched := ps.touched[:0]
	for i, it := range items {
		x := uint32(e.s.shardIndex(it))
		idxs[i] = x
		if ps.counts[x] == 0 {
			touched = append(touched, x)
		}
		ps.counts[x]++
	}
	// Pass 2: one recycled buffer per touched shard, then scatter.
	for _, x := range touched {
		ps.bufs[x] = e.takeBuf(&e.lanes[ps.row][x]) //gclint:allowalloc bounded warm-up: make runs ≤QueueDepth+2 times per lane, then the free ring recycles
	}
	for i, it := range items {
		x := idxs[i]
		ps.bufs[x] = append(ps.bufs[x], it)
	}
	// Pass 3: one ring push per touched shard.
	for n, x := range touched {
		ps.counts[x] = 0
		if err := e.send(ctx, &e.lanes[ps.row][x], &ps.pushed, ps.bufs[x]); err != nil {
			ps.bufs[x] = nil
			e.abandonChunk(ps, touched[n+1:])
			return err
		}
		ps.bufs[x] = nil
	}
	return nil
}

// abandonChunk drops the not-yet-sent sub-batches of a chunk whose
// send was interrupted by cancellation. Cold path; the buffers go to
// the GC rather than the free rings, whose single producer is the
// worker side — a producer push there would break the SPSC ownership.
func (e *Engine) abandonChunk(ps *producerState, rest []uint32) {
	for _, x := range rest {
		ps.counts[x] = 0
		ps.bufs[x] = nil
	}
}

// sendChunk ships one chunk as a single batch down the sole lane.
func (e *Engine) sendChunk(ctx context.Context, ps *producerState, items []model.Item) error {
	ln := &e.lanes[ps.row][0]
	b := append(e.takeBuf(ln), items...)
	return e.send(ctx, ln, &ps.pushed, b)
}

// takeBuf returns an empty batch buffer for the lane, recycling a spent
// one when available. The make path runs at most QueueDepth+2 times per
// lane over the engine's lifetime (the circulation bound), after which
// the free ring always has a buffer — the steady state is allocation
// free.
func (e *Engine) takeBuf(ln *lane) []model.Item {
	if b, ok := ln.free.pop(); ok {
		return b
	}
	return make([]model.Item, 0, e.cfg.BatchSize)
}

// send pushes one batch, spinning through the scheduler while the ring
// is full. This is the engine's backpressure point and therefore the
// only place a producer can block; it polls ctx so cancellation can
// interrupt the wait, recycling the unsent batch.
//
//gclint:hotpath
func (e *Engine) send(ctx context.Context, ln *lane, pushed *uint64, b []model.Item) error {
	for !ln.data.push(b) {
		if err := ctx.Err(); err != nil {
			return err // b goes to the GC; free's producer is the worker
		}
		runtime.Gosched()
	}
	*pushed++
	return nil
}

// workerLoop is one shard's persistent consumer: it drains the shard's
// column of the lane matrix, serving each popped batch under a single
// lock acquisition, and recycles the buffer to the lane it came from.
// After cancellation (the cancelled flag, set together with the
// recorded error) it recycles batches unprocessed so producers blocked
// on full rings are never wedged and the statistics cover exactly the
// claimed batches.
func (e *Engine) workerLoop(w int) {
	defer e.wg.Done()
	ws := &e.workers[w]
	depth := e.cfg.QueueDepth
	var idle spinWait
	for {
		worked := false
		for p := range e.lanes {
			ln := &e.lanes[p][w]
			// Cap consecutive pops per lane so one fast producer cannot
			// starve the others' full rings indefinitely.
			for n := 0; n < depth; n++ {
				b, ok := ln.data.pop()
				if !ok {
					break
				}
				worked = true
				if e.cancelled.Load() {
					ws.dropped++ // plain: ordered by the popped.Add below
				} else {
					e.s.accessBatch(w, b)
				}
				ln.free.push(b[:0])
				ws.popped.Add(1)
			}
		}
		if worked {
			idle.reset()
			continue
		}
		if e.closed.Load() {
			return
		}
		idle.wait()
	}
}

// accessBatch serves one routed batch entirely within shard idx under a
// single lock acquisition — the batched counterpart of Access. Every
// item in b must hash to shard idx.
//
//gclint:hotpath
func (s *Sharded) accessBatch(idx int, b []model.Item) {
	sh := &s.shards[idx]
	if !sh.mu.TryLock() {
		sh.contended.Add(1)
		sh.mu.Lock()
	}
	sh.acquired.Add(1)
	sh.rec.Serve(sh.c, b)
	sh.mu.Unlock()
}
