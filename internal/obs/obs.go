// Package obs is the observability layer of the simulator: a stream of
// records (Probe) and ready-made consumers — atomic counters, windowed
// rates, log-bucketed histograms, a bounded event log, and a miss-curve
// sampler — that turn it into the quantities the paper reasons about
// (block loads, item faults, marks, evictions, layer rebalances).
//
// A probe sees one record per access, and cachesim.Recorder alone
// emits it: the paper prices an access, not an item (Definition 1).
// Policies emit only lifecycle records — marks, phase resets and layer
// resizes — that no access reveals.
//
// Invariant (the zero-cost-when-nil rule): every emission site in a
// `//gclint:hotpath` function is guarded by a single `probe != nil`
// check, and a hot emitter passes a pointer to a record it owns and
// reuses — so an unattached cache pays one predictable branch and zero
// allocations per access, and an attached one copies nothing. This is enforced statically by the
// hotalloc analyzer and dynamically by the AllocsPerRun regression
// tests in this package. See DESIGN.md, "Observability".
//
// Probes may allocate and may synchronize; they are on the paid path.
// All probes in this package are safe for concurrent use, so one probe
// instance can be shared across the shards of a concurrent.Sharded.
package obs

import "gccache/internal/model"

// Kind classifies a record, or one of its parts.
type Kind uint8

// Record kinds. An access record's Kind says what served the request
// (EvHit, EvHitItemLayer, EvHitBlockLayer or EvBlockLoad) and its Class
// how §2 of the paper classes it (EvHitTemporal, EvHitSpatial or
// EvMiss). EvLoad and EvEvict name no record: Counters counts the items
// of the Loaded and Evicted lists under them. EvMark, EvPhaseReset and
// EvLayerResize are the lifecycle records policies emit.
const (
	// EvHit is a hit in a policy without internal layers (ItemLRU,
	// BlockLRU, GCM, ...).
	EvHit Kind = iota
	// EvHitItemLayer is an IBLP/adaptive hit served by the item layer.
	EvHitItemLayer
	// EvHitBlockLayer is an IBLP/adaptive hit served by the block layer.
	EvHitBlockLayer
	// EvHitTemporal classes a hit on an item that was requested before
	// (temporal locality).
	EvHitTemporal
	// EvHitSpatial classes a hit on a pristine item: loaded as a free
	// sibling of an earlier miss and not requested since (spatial
	// locality — the hits the GC model exists to price).
	EvHitSpatial
	// EvMiss classes a miss (one unit of cost, Definition 1).
	EvMiss
	// EvBlockLoad is the unit-cost block load serving a miss; the
	// record's Loaded lists the items it brought in.
	EvBlockLoad
	// EvLoad counts one item insertion: an item of an access's Loaded.
	EvLoad
	// EvEvict counts one item eviction: an item of an access's or a
	// resize's Evicted.
	EvEvict
	// EvMark is a GCM item transitioning unmarked→marked; Item is the
	// item.
	EvMark
	// EvPhaseReset is a GCM phase boundary (all marks cleared); N is the
	// number of marks dropped.
	EvPhaseReset
	// EvLayerResize is an IBLP/adaptive partition move; N is the new
	// item-layer target and Evicted the items the move pushed out.
	EvLayerResize

	numKinds
)

// NumKinds is the number of distinct kinds.
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

// Record is one observation. An access record (Kind EvHit,
// EvHitItemLayer, EvHitBlockLayer or EvBlockLoad) describes one
// request: Kind is what served it, Class its §2 class, Item the
// requested item, and Loaded and Evicted the access's net changes (see
// cachesim.Access). A lifecycle record (Kind EvMark, EvPhaseReset or
// EvLayerResize) reports a policy's own state change through Item, N
// and Evicted, as its kind says; its Class is zero.
//
// The record and its Loaded and Evicted lists belong to the emitter,
// which reuses them, and are valid only during the Observe call: a
// probe that keeps any of them must copy.
type Record struct {
	Kind  Kind
	Class Kind
	// N is the kind-specific magnitude: marks dropped (EvPhaseReset) or
	// the new item-layer target (EvLayerResize).
	N               int32
	Item            model.Item
	Loaded, Evicted []model.Item
}

// access reports whether r describes a request rather than a lifecycle
// change.
func (r *Record) access() bool { return r.Kind < EvMark }

// Probe consumes records. Observe gets a record its emitter owns and
// reuses, valid only during the call. Implementations must be safe for
// the concurrency of their attachment point: probes attached to a
// concurrent.Sharded see concurrent Observe calls.
//
// Observe must not modify the record, which the next member of a Multi
// or Suite reads too, nor call back into the cache that emitted it; the
// differential tests assert that attaching any probe in this package
// leaves policy decisions byte-identical.
type Probe interface {
	Observe(r *Record)
}

// Multi fans records out to several probes in order.
type Multi []Probe

// Observe implements Probe.
func (m Multi) Observe(r *Record) {
	for _, p := range m {
		p.Observe(r)
	}
}
