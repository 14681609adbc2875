// Package trace provides request-trace containers, binary serialization,
// and trace statistics for the GC caching simulator.
//
// A trace is simply an ordered sequence of item requests. The block
// structure lives in the geometry (see internal/model), not in the trace,
// mirroring the paper's Definition 1 where the partition into blocks is
// given separately from the request sequence σ.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"gccache/internal/model"
)

// Trace is an ordered sequence of item requests.
type Trace []model.Item

// Append adds requests to the trace and returns the extended trace.
func (t Trace) Append(items ...model.Item) Trace { return append(t, items...) }

// Len returns the number of requests.
func (t Trace) Len() int { return len(t) }

// Distinct returns the number of distinct items referenced.
func (t Trace) Distinct() int {
	seen := make(map[model.Item]struct{}, len(t))
	for _, it := range t {
		seen[it] = struct{}{}
	}
	return len(seen)
}

// DistinctBlocks returns the number of distinct blocks referenced under g.
func (t Trace) DistinctBlocks(g model.Geometry) int {
	seen := make(map[model.Block]struct{}, len(t))
	for _, it := range t {
		seen[g.BlockOf(it)] = struct{}{}
	}
	return len(seen)
}

// MaxItem returns the largest item ID referenced, or 0 for an empty
// trace. It is what cachesim.CheckUniverse takes.
func (t Trace) MaxItem() model.Item {
	var m model.Item
	for _, it := range t {
		m = max(m, it)
	}
	return m
}

// Universe returns an exclusive upper bound on the item IDs referenced —
// MaxItem()+1, or 0 for an empty trace. It is the natural universe
// argument for the bounded (dense-path) constructors: every trace item
// is a valid index in [0, Universe()). It wraps for an item at or past
// math.MaxInt, so input is checked with MaxItem, not with it.
func (t Trace) Universe() int {
	if len(t) == 0 {
		return 0
	}
	return int(t.MaxItem()) + 1
}

// Clone returns a deep copy.
func (t Trace) Clone() Trace {
	out := make(Trace, len(t))
	copy(out, t)
	return out
}

// Concat returns the concatenation of traces.
func Concat(ts ...Trace) Trace {
	n := 0
	for _, t := range ts {
		n += len(t)
	}
	out := make(Trace, 0, n)
	for _, t := range ts {
		out = append(out, t...)
	}
	return out
}

// Repeat returns t repeated n times.
func (t Trace) Repeat(n int) Trace {
	out := make(Trace, 0, len(t)*n)
	for i := 0; i < n; i++ {
		out = append(out, t...)
	}
	return out
}

// magic identifies the gccache binary trace format, version 1.
var magic = [8]byte{'g', 'c', 't', 'r', 'a', 'c', 'e', 1}

// Write serializes the trace to w in the gccache binary format: an 8-byte
// magic header, a uvarint length, then uvarint delta-encoded item IDs
// (zig-zag deltas, since traces frequently move both up and down the
// address space).
func (t Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(t)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return fmt.Errorf("trace: write length: %w", err)
	}
	prev := uint64(0)
	for _, it := range t {
		delta := int64(uint64(it)) - int64(prev)
		n = binary.PutVarint(buf[:], delta)
		if _, err := bw.Write(buf[:n]); err != nil {
			return fmt.Errorf("trace: write request: %w", err)
		}
		prev = uint64(it)
	}
	return bw.Flush()
}

// WriteSource serializes a Source to w in the same binary format as
// Write, in O(1) memory — the streaming encoder that lets a compiled
// scenario or an adapter emit traces far larger than RAM. declared is
// the request count written to the header; the source must deliver
// exactly that many items or WriteSource reports the mismatch (the
// format's length field is load-bearing for the streaming decoder).
func WriteSource(w io.Writer, src Source, declared uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], declared)
	if _, err := bw.Write(buf[:n]); err != nil {
		return fmt.Errorf("trace: write length: %w", err)
	}
	prev := uint64(0)
	written := uint64(0)
	for src.Next() {
		it := src.Item()
		delta := int64(uint64(it)) - int64(prev)
		n = binary.PutVarint(buf[:], delta)
		if _, err := bw.Write(buf[:n]); err != nil {
			return fmt.Errorf("trace: write request: %w", err)
		}
		prev = uint64(it)
		written++
	}
	if err := src.Err(); err != nil {
		return fmt.Errorf("trace: source failed after %d requests: %w", written, err)
	}
	if written != declared {
		return fmt.Errorf("trace: source emitted %d requests, header declared %d", written, declared)
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write. The declared length is
// trusted only up to maxPrealloc items of preallocation: a corrupt or
// adversarial header cannot reserve gigabytes before the first request
// byte is decoded (the slice simply grows by append past the cap).
func Read(r io.Reader) (Trace, error) {
	sc, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	pre := sc.Declared()
	if pre > maxPrealloc {
		pre = maxPrealloc
	}
	out := make(Trace, 0, pre)
	for sc.Next() {
		out = append(out, sc.Item())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats summarizes a trace under a geometry.
type Stats struct {
	Requests       int
	DistinctItems  int
	DistinctBlocks int
	// MeanItemsPerBlock is DistinctItems / DistinctBlocks: the average
	// number of distinct items touched per touched block. Values near the
	// block size indicate high spatial locality; near 1, none.
	MeanItemsPerBlock float64
	// BlockRunLengthMean is the mean length of maximal runs of requests
	// that stay within one block — a direct spatial-locality signal.
	BlockRunLengthMean float64
}

// Summarize computes Stats for t under g. An empty trace yields zeros.
func Summarize(t Trace, g model.Geometry) Stats {
	s := Stats{Requests: len(t)}
	if len(t) == 0 {
		return s
	}
	s.DistinctItems = t.Distinct()
	s.DistinctBlocks = t.DistinctBlocks(g)
	if s.DistinctBlocks > 0 {
		s.MeanItemsPerBlock = float64(s.DistinctItems) / float64(s.DistinctBlocks)
	}
	runs := 1
	for i := 1; i < len(t); i++ {
		if g.BlockOf(t[i]) != g.BlockOf(t[i-1]) {
			runs++
		}
	}
	s.BlockRunLengthMean = float64(len(t)) / float64(runs)
	return s
}

// FromByteAddresses converts a byte-address stream (the native format of
// most public memory traces) into an item trace: each item is one
// aligned itemBytes-sized chunk of the address space. Combine with a
// Fixed(B) geometry to model lines of itemBytes grouped into
// B·itemBytes-sized blocks.
func FromByteAddresses(addrs []uint64, itemBytes int) (Trace, error) {
	if itemBytes < 1 {
		return nil, fmt.Errorf("trace: item size %d < 1 byte", itemBytes)
	}
	out := make(Trace, len(addrs))
	for i, a := range addrs {
		out[i] = model.Item(a / uint64(itemBytes))
	}
	return out, nil
}
