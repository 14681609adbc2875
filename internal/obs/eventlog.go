package obs

import (
	"fmt"
	"io"
	"sync"

	"gccache/internal/model"
)

// LoggedEvent is a Record as the event log and gcserve's event stream
// keep it: stamped with its sequence number, its lists cut to their
// lengths.
type LoggedEvent struct {
	Seq             int64
	Kind, Class     Kind
	N               int32
	Item            model.Item
	Loaded, Evicted int
}

// String formats e as one line, the format of gcsim -probe, /events
// and /events/stream. An access reads
//
//	seq=1042 kind=block-load class=miss item=513 loaded=8 evicted=8
//
// and a lifecycle record
//
//	seq=1043 kind=layer-resize item=0 n=2048 evicted=3
//
// Fields that are zero for the kind are still printed; the format is
// stable for tooling (EXPERIMENTS.md's event-log appendix parses it).
func (e LoggedEvent) String() string {
	if e.Kind < EvMark {
		return fmt.Sprintf("seq=%d kind=%s class=%s item=%d loaded=%d evicted=%d",
			e.Seq, e.Kind, e.Class, e.Item, e.Loaded, e.Evicted)
	}
	return fmt.Sprintf("seq=%d kind=%s item=%d n=%d evicted=%d", e.Seq, e.Kind, e.Item, e.N, e.Evicted)
}

// EventLog is a probe that retains the most recent records in a
// fixed-size ring — bounded memory no matter how long the run, and no
// allocation per record once constructed. Safe for concurrent use.
type EventLog struct {
	mu sync.Mutex
	//gclint:guardedby mu
	ring []LoggedEvent
	//gclint:guardedby mu
	next int
	//gclint:guardedby mu
	filled int
	//gclint:guardedby mu
	seq int64
}

var _ Probe = (*EventLog)(nil)

// NewEventLog returns an event log retaining the last n records
// (clamped to [1, 1<<20]).
func NewEventLog(n int) *EventLog {
	return &EventLog{ring: make([]LoggedEvent, clamp(n, 1, 1<<20))}
}

// Observe implements Probe.
func (l *EventLog) Observe(r *Record) {
	l.mu.Lock()
	l.seq++
	l.ring[l.next] = LoggedEvent{Seq: l.seq, Kind: r.Kind, Class: r.Class, N: r.N, Item: r.Item,
		Loaded: len(r.Loaded), Evicted: len(r.Evicted)}
	l.next = (l.next + 1) % len(l.ring)
	if l.filled < len(l.ring) {
		l.filled++
	}
	l.mu.Unlock()
}

// Seq returns the total number of records observed.
func (l *EventLog) Seq() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Snapshot returns the retained records, oldest first.
func (l *EventLog) Snapshot() []LoggedEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LoggedEvent, 0, l.filled)
	start := (l.next - l.filled + len(l.ring)) % len(l.ring)
	for i := 0; i < l.filled; i++ {
		out = append(out, l.ring[(start+i)%len(l.ring)])
	}
	return out
}

// WriteTo dumps the retained records one line each, as
// LoggedEvent.String formats them.
func (l *EventLog) WriteTo(w io.Writer) (int64, error) {
	var written int64
	for _, e := range l.Snapshot() {
		n, err := fmt.Fprintln(w, e)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
