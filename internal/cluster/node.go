package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/model"
	"gccache/internal/obs"
)

// NodeConfig describes one cluster node.
type NodeConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// test port).
	Addr string
	// K and B are the cache capacity and block size; handoff refuses
	// snapshots from a differently-shaped node.
	K, B int
	// Universe bounds the item IDs the node accepts, recorded in
	// handoff snapshots for the same shape check. The node refuses any
	// batch or warm set holding an item ≥ Universe, or ≥
	// cachesim.MaxUniverse when Universe is 0, before applying any of
	// it: the cache's dense structures grow with the largest ID it
	// sees, so IDs from the wire must stay bounded.
	Universe int
	// NewCache constructs the node's cache policy. Required.
	NewCache func() cachesim.Cache
}

// Node is one member of the cache ring: a TCP server applying access
// batches to a single cache under a mutex, with a drain/handoff
// lifecycle. Wire concurrency is per-connection; the cache itself is
// serialized, mirroring one shard of the sharded engine: a
// cachesim.Recorder classifies every acked access, as a shard's does.
type Node struct {
	cfg   NodeConfig
	state atomic.Int32 // stateReady / stateDraining / stateStopped

	ln net.Listener
	wg sync.WaitGroup

	mu sync.Mutex
	//gclint:guardedby mu
	cache cachesim.Cache
	//gclint:guardedby mu
	rec *cachesim.Recorder
	// handed holds the statistics restored from handoffs, counted on the
	// nodes that served them.
	//gclint:guardedby mu
	handed cachesim.Stats
	//gclint:guardedby mu
	conns map[net.Conn]struct{}
}

// NewNode validates cfg and builds the node (not yet listening).
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.NewCache == nil {
		return nil, fmt.Errorf("cluster: NodeConfig.NewCache is required")
	}
	if cfg.K < 1 || cfg.B < 1 {
		return nil, fmt.Errorf("cluster: node needs k ≥ 1 and B ≥ 1 (got k=%d B=%d)", cfg.K, cfg.B)
	}
	c := cfg.NewCache()
	n := &Node{
		cfg:   cfg,
		cache: c,
		rec:   cachesim.NewRecorder(c.Name(), 0),
		conns: make(map[net.Conn]struct{}),
	}
	n.state.Store(stateReady)
	return n, nil
}

// Start binds the listener and begins serving. It returns the bound
// address (useful with ":0").
func (n *Node) Start() (string, error) {
	ln, err := net.Listen("tcp", n.cfg.Addr)
	if err != nil {
		return "", fmt.Errorf("cluster: node listen %s: %w", n.cfg.Addr, err)
	}
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or the configured one before Start.
func (n *Node) Addr() string {
	if n.ln != nil {
		return n.ln.Addr().String()
	}
	return n.cfg.Addr
}

// Ready reports whether the node accepts new access batches.
func (n *Node) Ready() bool { return n.state.Load() == stateReady }

// Draining reports whether the node is refusing new work while
// remaining reachable for health checks and handoff.
func (n *Node) Draining() bool { return n.state.Load() == stateDraining }

// Drain moves the node to the draining state: access batches are
// rejected with a structured draining error (clients fail over), while
// health and handoff frames still work.
func (n *Node) Drain() { n.state.CompareAndSwap(stateReady, stateDraining) }

// Resume returns a draining node to ready — the back-out path when a
// planned handoff is aborted.
func (n *Node) Resume() { n.state.CompareAndSwap(stateDraining, stateReady) }

// Stats returns the node's recorder statistics, with those restored
// from handoffs added.
func (n *Node) Stats() cachesim.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats()
}

// stats is Stats for a caller holding n.mu. The policy is named as it
// is now: a layer resize renames an IBLP.
func (n *Node) stats() cachesim.Stats {
	st := n.rec.Stats()        //gclint:guardok caller holds mu
	st.Add(n.handed)           //gclint:guardok caller holds mu
	st.Policy = n.cache.Name() //gclint:guardok caller holds mu
	return st
}

// SetProbe attaches p to the node's recorder, which reports each acked
// access, and to its cache when instrumented, which reports lifecycle
// records (nil detaches). p must be safe for concurrent use with the
// node's readers.
func (n *Node) SetProbe(p obs.Probe) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if in, ok := n.cache.(cachesim.Instrumented); ok {
		in.SetProbe(p)
	}
	n.rec.SetProbe(p)
}

// Close stops the node: the listener and every live connection are
// closed and the handlers joined. Idempotent.
func (n *Node) Close() error {
	n.state.Store(stateStopped)
	var err error
	if n.ln != nil {
		err = n.ln.Close()
		if errors.Is(err, net.ErrClosed) {
			err = nil
		}
	}
	n.mu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		stopped := n.state.Load() == stateStopped
		if !stopped {
			n.conns[conn] = struct{}{}
		}
		n.mu.Unlock()
		if stopped {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

func (n *Node) dropConn(conn net.Conn) {
	conn.Close()
	n.mu.Lock()
	delete(n.conns, conn)
	n.mu.Unlock()
}

// serveConn handles one client connection: a loop of request frames,
// each answered with a response or a structured error frame. Malformed
// frames get an error answer and close the connection; the decoder's
// caps guarantee a hostile peer cannot make the node allocate beyond
// the frame cap.
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer n.dropConn(conn)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var buf, out []byte
	var items []model.Item
	for {
		// An idle-read ceiling so stopped nodes' handlers never linger.
		conn.SetReadDeadline(time.Now().Add(time.Minute)) //nolint:errcheck // best-effort
		typ, payload, err := readFrame(br, buf[:0])
		if err != nil {
			return
		}
		buf = payload[:0]
		switch typ {
		case fAccessReq:
			seq, batch, err := decodeAccessReq(payload, items[:0])
			items = batch[:0]
			if err != nil {
				writeFrame(bw, fError, appendErrorFrame(out[:0], errBadFrame, err.Error())) //nolint:errcheck // closing anyway
				return
			}
			if n.state.Load() != stateReady {
				if writeFrame(bw, fError, appendErrorFrame(out[:0], errDraining, "node is draining")) != nil {
					return
				}
				continue
			}
			if err := n.outsideUniverse(batch); err != nil {
				if writeFrame(bw, fError, appendErrorFrame(out[:0], errBadFrame, err.Error())) != nil {
					return
				}
				continue
			}
			resp := n.apply(seq, batch)
			if writeFrame(bw, fAccessResp, appendAccessResp(out[:0], resp)) != nil {
				return
			}
		case fHealthReq:
			n.mu.Lock()
			acc := n.rec.Stats().Accesses + n.handed.Accesses
			n.mu.Unlock()
			h := healthResp{State: byte(n.state.Load()), Accesses: uint64(acc)}
			if writeFrame(bw, fHealthResp, appendHealthResp(out[:0], h)) != nil {
				return
			}
		case fHandoffReq:
			if err := n.acceptHandoff(payload); err != nil {
				if writeFrame(bw, fError, appendErrorFrame(out[:0], errInternal, err.Error())) != nil {
					return
				}
				continue
			}
			if writeFrame(bw, fHandoffResp, nil) != nil {
				return
			}
		default:
			writeFrame(bw, fError, appendErrorFrame(out[:0], errBadFrame, fmt.Sprintf("unknown frame type %#02x", typ))) //nolint:errcheck // closing anyway
			return
		}
	}
}

// WithCache runs f on the node's cache under the same mutex that
// serializes batch application. It is the control-plane entry point for
// mutations that must not race Access — the autotune controller's
// resize apply in particular (cachesim.LayerResizable requires callers
// to hold the Access lock). f must not call back into the Node.
func (n *Node) WithCache(f func(cachesim.Cache)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	f(n.cache)
}

// outsideUniverse returns an error naming the first item of items at
// or beyond the node's universe (see NodeConfig.Universe), or nil when
// every item fits. Callers check a whole batch or warm set before
// applying any of it, so a refusal leaves the cache untouched.
func (n *Node) outsideUniverse(items []model.Item) error {
	universe := n.cfg.Universe
	if universe <= 0 {
		universe = cachesim.MaxUniverse
	}
	for _, it := range items {
		if it >= model.Item(universe) {
			return fmt.Errorf("cluster: item %d outside the node's universe %d", it, universe)
		}
	}
	return nil
}

// apply runs one acked batch against the cache. The ack covers the
// whole batch: every item is applied and recorded before the response
// is built.
func (n *Node) apply(seq uint64, batch []model.Item) accessResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	before := n.rec.Stats()
	n.rec.Serve(n.cache, batch)
	after := n.rec.Stats()
	return accessResp{
		Seq:    seq,
		Served: uint64(len(batch)),
		Hits:   uint64(after.Hits - before.Hits),
		Misses: uint64(after.Misses - before.Misses),
	}
}
