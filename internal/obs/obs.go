// Package obs is the observability layer of the simulator: a typed
// event stream (Probe) emitted by every instrumented policy and by the
// cachesim.Recorder, plus ready-made consumers — atomic counters,
// windowed rates, log-bucketed histograms, a bounded event log, and a
// miss-curve sampler — that turn per-access events into the quantities
// the paper reasons about (block loads, item faults, marks, evictions,
// layer rebalances).
//
// Invariant (the zero-cost-when-nil rule): every emission site in a
// `//gclint:hotpath` function is guarded by a single `probe != nil`
// check, events are plain value structs, and Probe methods take only
// concrete types — so an unattached policy pays one predictable branch
// and zero allocations per access. This is enforced statically by the
// hotalloc analyzer and dynamically by the AllocsPerRun regression
// tests in this package. See DESIGN.md, "Observability".
//
// Probes may allocate and may synchronize; they are on the paid path.
// All probes in this package are safe for concurrent use, so one probe
// instance can be shared across the shards of a concurrent.Sharded.
package obs

import "gccache/internal/model"

// Kind classifies an observability event.
type Kind uint8

// Event kinds. Two complementary views share the stream: *policy view*
// events are emitted by the cache implementation itself (it knows
// layers, marks, and what a block load brought in), while *recorder
// view* events are emitted by cachesim.Recorder, which classifies hits
// into temporal vs spatial exactly as §2 of the paper defines them.
// Attaching a probe to both (cachesim.Replay with ReplayOptions.Probe
// does) yields the complete stream; the views never double-count the
// same kind.
const (
	// EvHit is a policy-view hit in a policy without internal layers
	// (ItemLRU, BlockLRU, GCM, ...).
	EvHit Kind = iota
	// EvHitItemLayer is an IBLP/adaptive hit served by the item layer.
	EvHitItemLayer
	// EvHitBlockLayer is an IBLP/adaptive hit served by the block layer.
	EvHitBlockLayer
	// EvHitTemporal is a recorder-view hit on an item that was requested
	// before (temporal locality).
	EvHitTemporal
	// EvHitSpatial is a recorder-view hit on a pristine item: loaded as a
	// free sibling of an earlier miss and not requested since (spatial
	// locality — the hits the GC model exists to price).
	EvHitSpatial
	// EvMiss is a recorder-view miss (one unit of cost, Definition 1).
	EvMiss
	// EvBlockLoad is the policy-view unit-cost block load serving a miss;
	// Item is the requested item, Block its block (zero for geometry-free
	// policies), N the number of items actually brought in.
	EvBlockLoad
	// EvLoad is one item insertion (policy view, a net change: see
	// cachesim.Access); emitted once per item Access.Loaded lists.
	EvLoad
	// EvEvict is one item eviction (policy view, a net change: see
	// cachesim.Access); emitted once per item Access.Evicted lists,
	// and once per item a layer resize pushes out.
	EvEvict
	// EvMark is a GCM/marking item transitioning unmarked→marked.
	EvMark
	// EvPhaseReset is a GCM/marking phase boundary (all marks cleared);
	// N is the number of resident items at the boundary.
	EvPhaseReset
	// EvLayerResize is an AdaptiveIBLP partition move; N is the new
	// item-layer target.
	EvLayerResize

	numKinds
)

// NumKinds is the number of distinct event kinds.
const NumKinds = int(numKinds)

var kindNames = [numKinds]string{
	EvHit:           "hit",
	EvHitItemLayer:  "hit-item-layer",
	EvHitBlockLayer: "hit-block-layer",
	EvHitTemporal:   "hit-temporal",
	EvHitSpatial:    "hit-spatial",
	EvMiss:          "miss",
	EvBlockLoad:     "block-load",
	EvLoad:          "load",
	EvEvict:         "evict",
	EvMark:          "mark",
	EvPhaseReset:    "phase-reset",
	EvLayerResize:   "layer-resize",
}

// String returns the stable lowercase name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// IsPolicyRequest reports whether k marks the service of one request in
// the policy view (a hit of any layer, or the block load of a miss).
// Exactly one such event is emitted per access by an instrumented
// policy, so these kinds are the per-access clock for policy-view
// probes.
func (k Kind) IsPolicyRequest() bool {
	switch k {
	case EvHit, EvHitItemLayer, EvHitBlockLayer, EvBlockLoad:
		return true
	}
	return false
}

// IsRecorderRequest reports whether k marks the service of one request
// in the recorder view (temporal hit, spatial hit, or miss). Exactly one
// such event is emitted per access by a probed cachesim.Recorder.
func (k Kind) IsRecorderRequest() bool {
	switch k {
	case EvHitTemporal, EvHitSpatial, EvMiss:
		return true
	}
	return false
}

// Event is one observability event. It is a small value struct so
// emitting one costs no allocation; fields not meaningful for a kind are
// zero.
type Event struct {
	// Kind classifies the event.
	Kind Kind
	// Item is the item concerned (requested, loaded, evicted, marked).
	Item model.Item
	// Block is the block concerned, when the emitter knows a geometry.
	Block model.Block
	// N is the kind-specific magnitude: items brought in (EvBlockLoad),
	// residents at a phase boundary (EvPhaseReset), or the new item-layer
	// target (EvLayerResize).
	N int32
}

// Probe consumes observability events. Implementations must be safe for
// the concurrency of their attachment point: probes attached to a
// concurrent.Sharded see concurrent Observe calls.
//
// Observe must not call back into the cache that emitted the event; the
// differential tests assert that attaching any probe in this package
// leaves policy decisions byte-identical.
type Probe interface {
	Observe(e Event)
}

// Multi fans events out to several probes in order.
type Multi []Probe

// Observe implements Probe.
func (m Multi) Observe(e Event) {
	for _, p := range m {
		p.Observe(e)
	}
}
