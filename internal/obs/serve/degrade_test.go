package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gccache/internal/obs"
)

func TestEventFanDeliversInOrder(t *testing.T) {
	f := newEventFan()
	sub, cancel := f.Subscribe(16)
	defer cancel()
	for i := 0; i < 10; i++ {
		f.Observe(&obs.Record{Kind: obs.EvHit, Item: 1})
	}
	for i := 0; i < 10; i++ {
		e := <-sub.ch
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if f.Dropped() != 0 {
		t.Errorf("fast consumer shed %d events", f.Dropped())
	}
}

func TestEventFanShedsSlowConsumerWithoutBlocking(t *testing.T) {
	f := newEventFan()
	sub, cancel := f.Subscribe(4)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ { // never read: must not block
			f.Observe(&obs.Record{Kind: obs.EvHit})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Observe blocked on a slow consumer")
	}
	if got := f.Dropped(); got != 96 {
		t.Errorf("dropped %d events, want 96 (100 sent, buffer 4)", got)
	}
	if got := sub.dropped.Load(); got != 96 {
		t.Errorf("per-subscriber drop count %d, want 96", got)
	}
	// The buffered prefix is still delivered, with the original seqs.
	if e := <-sub.ch; e.Seq != 1 {
		t.Errorf("first delivered seq %d, want 1", e.Seq)
	}
}

// TestEventFanNeverShedsControlPlane pins the satellite fix: a data
// flood that saturates the subscriber buffer must shed only data —
// every layer-resize event is still delivered, via the dedicated
// control ring, in order.
func TestEventFanNeverShedsControlPlane(t *testing.T) {
	f := newEventFan()
	sub, cancel := f.Subscribe(1)
	defer cancel()
	const resizes = 10
	for i := 0; i < resizes; i++ {
		for j := 0; j < 100; j++ { // unread: data floods and sheds
			f.Observe(&obs.Record{Kind: obs.EvHit})
		}
		f.Observe(&obs.Record{Kind: obs.EvLayerResize, N: int32(i)})
	}
	if f.Dropped() == 0 {
		t.Fatal("setup failed to shed data events")
	}
	var got []int32
	for {
		e, ok := sub.popCtrl()
		if !ok {
			break
		}
		if e.Kind != obs.EvLayerResize {
			t.Fatalf("control ring held a %s event", e.Kind)
		}
		got = append(got, e.N)
	}
	if len(got) != resizes {
		t.Fatalf("delivered %d control events, want all %d", len(got), resizes)
	}
	for i, n := range got {
		if n != int32(i) {
			t.Fatalf("control events out of order: position %d has N=%d", i, n)
		}
	}
	if f.CtrlOverwrites() != 0 {
		t.Errorf("control ring overwrote %d events with only %d pending", f.CtrlOverwrites(), resizes)
	}
}

// TestEventFanControlRingOverwritesOldest checks the bounded-ring
// degradation mode: past ctrlRingSize pending control events the oldest
// are overwritten — counted, never silent, and the newest always kept.
func TestEventFanControlRingOverwritesOldest(t *testing.T) {
	f := newEventFan()
	sub, cancel := f.Subscribe(1)
	defer cancel()
	total := ctrlRingSize + 7
	for i := 0; i < total; i++ {
		f.Observe(&obs.Record{Kind: obs.EvLayerResize, N: int32(i)})
	}
	if got := f.CtrlOverwrites(); got != 7 {
		t.Fatalf("CtrlOverwrites = %d, want 7", got)
	}
	first, ok := sub.popCtrl()
	if !ok || first.N != 7 {
		t.Fatalf("oldest surviving control event N=%d ok=%v, want N=7", first.N, ok)
	}
	n := 1
	last := first
	for {
		e, ok := sub.popCtrl()
		if !ok {
			break
		}
		last = e
		n++
	}
	if n != ctrlRingSize || last.N != int32(total-1) {
		t.Fatalf("ring drained %d events ending N=%d, want %d ending N=%d", n, last.N, ctrlRingSize, total-1)
	}
}

// TestEventStreamDeliversResizesUnderFlood is the end-to-end version:
// an /events/stream reader that connects while the fan is flooding
// still sees every layer-resize line.
func TestEventStreamDeliversResizesUnderFlood(t *testing.T) {
	s := newTestServer(t, Config{Policy: "iblp"}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait for the subscription to land, then flood: bursts far beyond
	// the channel buffer with one resize in each.
	deadline := time.Now().Add(2 * time.Second)
	for s.fan.Subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	const resizes = 5
	go func() {
		for i := 0; i < resizes; i++ {
			for j := 0; j < 5000; j++ {
				s.fan.Observe(&obs.Record{Kind: obs.EvHit})
			}
			s.fan.Observe(&obs.Record{Kind: obs.EvLayerResize, N: int32(100 + i)})
		}
	}()

	seen := make(map[string]bool)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "kind=layer-resize") {
			seen[line[strings.Index(line, "n="):]] = true
			if len(seen) == resizes {
				break
			}
		}
	}
	if len(seen) != resizes {
		t.Fatalf("stream delivered %d/%d layer-resize events: %v (scan err %v)",
			len(seen), resizes, seen, sc.Err())
	}
}

func TestEventFanUnsubscribeAndCloseAll(t *testing.T) {
	f := newEventFan()
	_, cancel1 := f.Subscribe(1)
	sub2, cancel2 := f.Subscribe(1)
	if f.Subscribers() != 2 {
		t.Fatalf("subscribers = %d", f.Subscribers())
	}
	cancel1()
	cancel1() // idempotent
	if f.Subscribers() != 1 {
		t.Fatalf("after cancel: subscribers = %d", f.Subscribers())
	}
	f.CloseAll()
	if _, open := <-sub2.ch; open {
		t.Error("CloseAll left a subscriber channel open")
	}
	cancel2() // a stream handler returning after shutdown: no second close
	if f.Subscribers() != 0 {
		t.Fatalf("cancel after CloseAll: subscribers = %d", f.Subscribers())
	}
	f.Observe(&obs.Record{}) // no subscribers: must be a no-op
}

func TestHealthzDegradesOnShedding(t *testing.T) {
	s := newTestServer(t, Config{Policy: "iblp"}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("fresh server /healthz: %d %q", code, body)
	}

	// Saturate a tiny subscriber to force shedding.
	_, cancel := s.fan.Subscribe(1)
	defer cancel()
	for i := 0; i < 10; i++ {
		s.fan.Observe(&obs.Record{Kind: obs.EvHit})
	}
	if s.fan.Dropped() == 0 {
		t.Fatal("setup failed to shed events")
	}
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("degraded /healthz status %d", code)
	}
	if !strings.Contains(body, "degraded") || !strings.Contains(body, "shed") {
		t.Errorf("degraded /healthz body %q, want shedding reason", body)
	}

	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if dropped, ok := m["stream.dropped"].(float64); !ok || dropped <= 0 {
		t.Errorf("metrics stream.dropped = %v, want > 0", m["stream.dropped"])
	}
	if healthy, ok := m["healthy"].(bool); !ok || healthy {
		t.Errorf("metrics healthy = %v, want false", m["healthy"])
	}
}

func TestEventStreamDeliversLiveEvents(t *testing.T) {
	s := newTestServer(t, Config{Policy: "iblp", Loop: true, Rate: 200000}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() && lines < 5 {
		if !strings.Contains(sc.Text(), "kind=") {
			t.Fatalf("stream line %q", sc.Text())
		}
		lines++
	}
	if lines < 5 {
		t.Fatalf("stream delivered only %d lines: %v", lines, sc.Err())
	}
}

func TestShutdownDrainsAndReportsUnavailable(t *testing.T) {
	s := newTestServer(t, Config{Policy: "iblp", Loop: true, Rate: 200000}, "")
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	// Open a stream (an in-flight response) before shutting down.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/events/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The stream must have ended cleanly (fan closed), not been cut.
	buf := make([]byte, 4096)
	for {
		if _, rerr := resp.Body.Read(buf); rerr != nil {
			break
		}
	}
	// After shutdown the listener is closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}
}

// TestLivenessReadinessSplitDuringShutdown pins the probe contract: a
// draining server is still alive (/healthz 200 — killing it would cut
// in-flight work) but no longer ready (/readyz 503 — routing anything
// new to it would be lost).
func TestLivenessReadinessSplitDuringShutdown(t *testing.T) {
	s := newTestServer(t, Config{Policy: "iblp"}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/readyz")
	if code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("fresh server /readyz: %d %q", code, body)
	}

	s.shuttingDown.Store(true)
	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "shutting down") {
		t.Errorf("/healthz during shutdown: %d %q, want 200 with the reason listed", code, body)
	}
	code, body = get(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "shutting down") {
		t.Errorf("/readyz during shutdown: %d %q, want 503", code, body)
	}
	code, _ = get(t, ts.URL+"/events/stream")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/events/stream during shutdown: %d", code)
	}
}
