package obs

import (
	"io"
	"math"
	"math/bits"
	"sync"

	"gccache/internal/bitset"
	"gccache/internal/model"
	"gccache/internal/render"
)

// Log2Hist is a log₂-bucketed histogram of non-negative int64 samples:
// value v lands in bucket bits.Len64(v), so bucket i covers
// [2^(i−1), 2^i). Memory is a fixed 65-slot array regardless of sample
// count, updates are O(1) and allocation-free, and quantiles are
// answered from the bucket prefix sums (resolution: one power of two —
// exactly the granularity the paper's asymptotic bounds speak in). The
// zero value is empty. Not safe for concurrent use: single-owner hot
// paths (the cachesim Recorder's always-on distributions) hold one by
// value, and Histogram wraps one with a mutex and labels.
type Log2Hist struct {
	buckets [65]int64
	count   int64
	sum     int64
	max     int64
}

// Record adds one sample; negative samples are clamped to zero.
//
//gclint:hotpath
func (h *Log2Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Log2Hist) Count() int64 { return h.count }

// Mean returns the exact mean of the samples (sums are kept exactly;
// only the distribution is bucketed), or 0 with no samples.
func (h *Log2Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Percentile returns the q-quantile (q in [0,1]) as the lower bound of
// the bucket holding the ceil(q·count)-th smallest sample (1-based) —
// an under-estimate by at most a factor of two. The ceil-rank
// convention is the standard nearest-rank definition: p50 of three
// samples inspects the 2nd smallest, p99 of 100 samples the 99th.
// Returns 0 with no samples.
func (h *Log2Hist) Percentile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Ceil rank, not floor: int64(q*count) under-reported the quantile
	// by one rank whenever q·count was fractional (p50 of 3 samples
	// inspected rank 1 instead of rank 2).
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			return bucketLow(i)
		}
	}
	return h.max
}

// bucketLow returns the smallest value that lands in bucket i.
func bucketLow(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1) << (i - 1)
}

// Histogram is a Log2Hist with a name, a sample unit for its rendered
// tables, and a mutex: safe for concurrent use.
type Histogram struct {
	mu   sync.Mutex
	name string
	unit string
	h    Log2Hist
}

// NewHistogram returns an empty histogram labeled name, with sample
// values measured in unit (used by the rendered tables).
func NewHistogram(name, unit string) *Histogram {
	return &Histogram{name: name, unit: unit}
}

// Record adds one sample; negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	h.mu.Lock()
	h.h.Record(v)
	h.mu.Unlock()
}

// Name returns the histogram's label.
func (h *Histogram) Name() string { return h.name }

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Count()
}

// Mean returns the exact mean of the samples, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Mean()
}

// Percentile returns the q-quantile under Log2Hist.Percentile's
// ceil-rank convention, or 0 with no samples.
func (h *Histogram) Percentile(q float64) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Percentile(q)
}

// Table renders the non-empty buckets plus summary quantiles.
func (h *Histogram) Table() *render.Table {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := &render.Table{
		Title:   h.name,
		Headers: []string{"bucket (" + h.unit + ")", "count", "cumulative %"},
	}
	var cum int64
	for i, n := range h.h.buckets {
		if n == 0 {
			continue
		}
		cum += n
		lo := bucketLow(i)
		hi := int64(1)<<i - 1
		if i == 0 {
			hi = 0
		}
		t.AddRow(render.FormatFloat(float64(lo))+"–"+render.FormatFloat(float64(hi)),
			n, 100*float64(cum)/float64(h.h.count))
	}
	t.AddRow("p50", h.h.Percentile(0.50), "-")
	t.AddRow("p90", h.h.Percentile(0.90), "-")
	t.AddRow("p99", h.h.Percentile(0.99), "-")
	t.AddRow("samples", h.h.count, "-")
	return t
}

// WriteTo writes the rendered table as aligned text, implementing the
// io.WriterTo shape shared by every exportable probe.
func (h *Histogram) WriteTo(w io.Writer) (int64, error) {
	return 0, h.Table().WriteText(w)
}

// WriteCSV writes the rendered table as CSV.
func (h *Histogram) WriteCSV(w io.Writer) error { return h.Table().WriteCSV(w) }

// ReuseDist is a probe that histograms reuse distances: the number of
// requests between successive references to the same item (an upper
// bound on stack distance; cold first references are tracked separately
// as ColdCount). It listens to the recorder view — attach a probed
// cachesim.Recorder (cachesim.Replay with ReplayOptions.Probe does).
//
// Its last-seen table is indexed by item ID and grows with the largest
// item observed, so Observe neither hashes nor, once grown, allocates.
type ReuseDist struct {
	mu   sync.Mutex
	hist *Histogram
	seq  int64
	cold int64
	// last[it] is the sequence of it's previous reference (0 = never).
	last []int64
}

var _ Probe = (*ReuseDist)(nil)

// NewReuseDist returns an empty ReuseDist probe.
func NewReuseDist() *ReuseDist {
	return &ReuseDist{hist: NewHistogram("reuse distance", "requests")}
}

// Observe implements Probe.
//
//gclint:hotpath
func (r *ReuseDist) Observe(e Event) {
	if !e.Kind.IsRecorderRequest() {
		return
	}
	r.mu.Lock()
	r.seq++
	if uint64(e.Item) >= uint64(len(r.last)) {
		r.last = bitset.Grow(r.last, uint64(e.Item))
	}
	if prev := r.last[e.Item]; prev != 0 {
		r.hist.Record(r.seq - prev)
	} else {
		r.cold++
	}
	r.last[e.Item] = r.seq
	r.mu.Unlock()
}

// Hist returns the underlying histogram.
func (r *ReuseDist) Hist() *Histogram { return r.hist }

// ColdCount returns the number of first references (no reuse distance).
func (r *ReuseDist) ColdCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cold
}

// Note records a raw reference outside any cache run — the entry point
// gctrace uses to profile a trace's reuse structure directly.
func (r *ReuseDist) Note(it model.Item) {
	r.Observe(Event{Kind: EvMiss, Item: it})
}

// WriteTo renders the histogram plus the cold-reference count.
func (r *ReuseDist) WriteTo(w io.Writer) (int64, error) {
	t := r.hist.Table()
	t.AddRow("cold (first reference)", r.ColdCount(), "-")
	return 0, t.WriteText(w)
}

// InterMissGap is a probe that histograms the number of requests between
// successive misses — the paper's fault rate, seen as a distribution
// instead of a mean. Recorder view.
type InterMissGap struct {
	mu       sync.Mutex
	hist     *Histogram
	sinceMis int64
}

var _ Probe = (*InterMissGap)(nil)

// NewInterMissGap returns an empty inter-miss-gap probe.
func NewInterMissGap() *InterMissGap {
	return &InterMissGap{hist: NewHistogram("inter-miss gap", "requests")}
}

// Observe implements Probe.
func (g *InterMissGap) Observe(e Event) {
	if !e.Kind.IsRecorderRequest() {
		return
	}
	g.mu.Lock()
	g.sinceMis++
	if e.Kind == EvMiss {
		g.hist.Record(g.sinceMis)
		g.sinceMis = 0
	}
	g.mu.Unlock()
}

// Hist returns the underlying histogram.
func (g *InterMissGap) Hist() *Histogram { return g.hist }

// WriteTo renders the histogram.
func (g *InterMissGap) WriteTo(w io.Writer) (int64, error) { return g.hist.WriteTo(w) }

// Residency is a probe that histograms how long items stay resident:
// the number of requests between an item's load and its eviction.
// Policy view (EvLoad/EvEvict), so it works attached directly to a
// policy, with or without a recorder. Its load table grows like
// ReuseDist's.
type Residency struct {
	mu   sync.Mutex
	hist *Histogram
	seq  int64
	// loaded[it] is 1+sequence of it's load (0 = not resident).
	loaded []int64
}

var _ Probe = (*Residency)(nil)

// NewResidency returns an empty Residency probe.
func NewResidency() *Residency {
	return &Residency{hist: NewHistogram("residency", "requests")}
}

// Observe implements Probe.
//
//gclint:hotpath
func (r *Residency) Observe(e Event) {
	switch {
	case e.Kind.IsPolicyRequest():
		r.mu.Lock()
		r.seq++
		r.mu.Unlock()
	case e.Kind == EvLoad:
		r.mu.Lock()
		if uint64(e.Item) >= uint64(len(r.loaded)) {
			r.loaded = bitset.Grow(r.loaded, uint64(e.Item))
		}
		r.loaded[e.Item] = r.seq + 1
		r.mu.Unlock()
	case e.Kind == EvEvict:
		r.mu.Lock()
		// An item past the table's end was never loaded.
		if uint64(e.Item) < uint64(len(r.loaded)) {
			if at := r.loaded[e.Item]; at != 0 {
				r.hist.Record(r.seq - (at - 1))
				r.loaded[e.Item] = 0
			}
		}
		r.mu.Unlock()
	}
}

// Hist returns the underlying histogram.
func (r *Residency) Hist() *Histogram { return r.hist }

// WriteTo renders the histogram.
func (r *Residency) WriteTo(w io.Writer) (int64, error) { return r.hist.WriteTo(w) }
