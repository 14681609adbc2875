package serve

import (
	"sync"
	"sync/atomic"

	"gccache/internal/obs"
)

// ctrlRingSize bounds the per-subscriber control-plane ring. Control
// actions are rate-capped at the source (the autotune controller fires
// at most one resize per window interval), so 64 slots cover minutes of
// history; overwrites are counted, never silent.
const ctrlRingSize = 64

// isControlPlane reports whether k is a control-plane record: one that
// records a management action on the cache rather than per-request data
// traffic. These must reach the dashboard even under shedding — a
// missed layer-resize makes the following miss-ratio shift look
// spontaneous.
func isControlPlane(k obs.Kind) bool { return k == obs.EvLayerResize }

// subscriber is one /events/stream consumer: a bounded channel for data
// events plus its personal shed count, and a tiny dedicated ring for
// control-plane events so they are never displaced by data floods.
type subscriber struct {
	ch      chan obs.LoggedEvent
	closeCh sync.Once // the consumer's cancel and CloseAll may race to close ch
	dropped atomic.Int64

	// notify wakes the stream handler (capacity 1, non-blocking send)
	// when a control event lands while the data channel is quiet.
	notify chan struct{}

	ctrlMu sync.Mutex
	//gclint:guardedby ctrlMu
	ctrl [ctrlRingSize]obs.LoggedEvent
	//gclint:guardedby ctrlMu
	ctrlStart int
	//gclint:guardedby ctrlMu
	ctrlLen int
}

// pushCtrl appends a control event to the ring, overwriting the oldest
// entry when full, and reports whether an overwrite happened.
func (s *subscriber) pushCtrl(fe obs.LoggedEvent) (overwrote bool) {
	s.ctrlMu.Lock()
	if s.ctrlLen == ctrlRingSize {
		s.ctrlStart = (s.ctrlStart + 1) % ctrlRingSize
		s.ctrlLen--
		overwrote = true
	}
	s.ctrl[(s.ctrlStart+s.ctrlLen)%ctrlRingSize] = fe
	s.ctrlLen++
	s.ctrlMu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return overwrote
}

// popCtrl removes and returns the oldest pending control event.
func (s *subscriber) popCtrl() (obs.LoggedEvent, bool) {
	s.ctrlMu.Lock()
	defer s.ctrlMu.Unlock()
	if s.ctrlLen == 0 {
		return obs.LoggedEvent{}, false
	}
	fe := s.ctrl[s.ctrlStart]
	s.ctrlStart = (s.ctrlStart + 1) % ctrlRingSize
	s.ctrlLen--
	return fe, true
}

// eventFan fans live probe events to HTTP stream subscribers over
// bounded channels. Delivery never blocks: when a subscriber's buffer
// is full the event is shed for that subscriber and counted, so a slow
// or stalled consumer degrades its own stream instead of stalling the
// replay. Control-plane events (layer-resize) are exempt from shedding:
// they route through a tiny dedicated per-subscriber ring, so a data
// flood can never hide the control actions that explain it. With no
// subscribers Observe is a single atomic load.
type eventFan struct {
	nsubs          atomic.Int64
	seq            atomic.Int64
	dropped        atomic.Int64 // total shed data events across all subscribers
	ctrlOverwrites atomic.Int64 // control events overwritten in full rings

	mu sync.Mutex
	//gclint:guardedby mu
	subs map[int]*subscriber
	//gclint:guardedby mu
	next int
}

var _ obs.Probe = (*eventFan)(nil)

func newEventFan() *eventFan {
	return &eventFan{subs: make(map[int]*subscriber)}
}

// Observe implements obs.Probe: non-blocking best-effort delivery of r,
// stamped with the fan's global sequence number so consumers can detect
// gaps left by shedding.
func (f *eventFan) Observe(r *obs.Record) {
	if f.nsubs.Load() == 0 {
		return
	}
	fe := obs.LoggedEvent{Seq: f.seq.Add(1), Kind: r.Kind, Class: r.Class, N: r.N, Item: r.Item,
		Loaded: len(r.Loaded), Evicted: len(r.Evicted)}
	ctrl := isControlPlane(r.Kind)
	f.mu.Lock()
	for _, s := range f.subs {
		if ctrl {
			if s.pushCtrl(fe) {
				f.ctrlOverwrites.Add(1)
			}
			continue
		}
		select {
		case s.ch <- fe:
		default:
			s.dropped.Add(1)
			f.dropped.Add(1)
		}
	}
	f.mu.Unlock()
}

// Subscribe registers a consumer with the given buffer size and returns
// it with a cancel function. After cancel the channel is closed and no
// further events arrive.
func (f *eventFan) Subscribe(buf int) (*subscriber, func()) {
	if buf < 1 {
		buf = 1
	}
	s := &subscriber{ch: make(chan obs.LoggedEvent, buf), notify: make(chan struct{}, 1)}
	f.mu.Lock()
	id := f.next
	f.next++
	f.subs[id] = s
	f.mu.Unlock()
	f.nsubs.Add(1)
	return s, func() {
		f.mu.Lock()
		if _, ok := f.subs[id]; ok { // not yet dropped by CloseAll or an earlier cancel
			delete(f.subs, id)
			f.nsubs.Add(-1)
		}
		f.mu.Unlock()
		s.close()
	}
}

// close closes s.ch once, whichever of cancel and CloseAll comes first.
func (s *subscriber) close() { s.closeCh.Do(func() { close(s.ch) }) }

// CloseAll disconnects every subscriber — used at shutdown so stream
// handlers drain and return instead of holding connections open.
func (f *eventFan) CloseAll() {
	f.mu.Lock()
	subs := make([]*subscriber, 0, len(f.subs))
	for _, s := range f.subs {
		subs = append(subs, s)
	}
	f.subs = make(map[int]*subscriber)
	f.nsubs.Store(0)
	f.mu.Unlock()
	for _, s := range subs {
		s.close()
	}
}

// Dropped returns the total data events shed across all subscribers.
func (f *eventFan) Dropped() int64 { return f.dropped.Load() }

// CtrlOverwrites returns the control-plane events lost to full control
// rings — nonzero only when a subscriber ignores its stream across more
// than ctrlRingSize control actions.
func (f *eventFan) CtrlOverwrites() int64 { return f.ctrlOverwrites.Load() }

// Subscribers returns the current consumer count.
func (f *eventFan) Subscribers() int64 { return f.nsubs.Load() }
