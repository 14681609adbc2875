package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one request (one wire batch, one sim
// pass) share a group id; Parent is 0 for a root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Group  uint64 `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op returning zero.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu   sync.Mutex
	logs []*spanLog
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanLog is one goroutine's span buffer, so concurrent clients record
// without sharing a lock.
type spanLog struct {
	t     *tracer
	spans []span
}

// log returns a new per-goroutine buffer (nil when tracing is off).
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{t: t}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// id allocates a span id before the span's children run.
func (l *spanLog) id() uint64 {
	if l == nil {
		return 0
	}
	return l.t.ids.Add(1)
}

// now is the offset from the tracer's start.
func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.t.t0))
}

// end records span id, which started at start and ends now.
func (l *spanLog) end(id, parent, group uint64, name string, start int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: start, End: l.now()})
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeSelfTimes prints, per span name, the span count, total time, and
// self time: the span's duration minus the part its children cover.
func (t *tracer) writeSelfTimes(w io.Writer) {
	spans := t.all()
	child := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	by := make(map[string]*agg)
	var names []string
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		d := s.End - s.Start
		a.n++
		a.total += d
		a.self += d - child[s.ID]
	}
	sort.Strings(names)
	for _, name := range names {
		a := by[name]
		fmt.Fprintf(w, "perfbench: span %-22s n=%-8d total %10.3f ms  self %10.3f ms\n",
			name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
