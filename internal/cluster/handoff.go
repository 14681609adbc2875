package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"gccache/internal/cachesim"
	"gccache/internal/checkpoint"
	"gccache/internal/model"
)

// snapshotKind tags cluster-node handoff snapshots.
const snapshotKind = "gccache.cluster-node"

// recencyDumper is the optional cache capability handoff uses to ship
// the warm set. policy.ItemLRU implements it; policies that load at
// block granularity do not (replaying their warm set item-by-item
// would reconstruct different state), so they hand off stats only.
type recencyDumper interface {
	AppendRecency(dst []model.Item) []model.Item
}

// Snapshot captures the node's state as a checkpoint snapshot: the
// shape meta (k, B, universe), the accounting stats in the canonical
// cachesim codec, and — when the policy exposes its recency order — a
// "warmset" section listing the cached items LRU-first as zig-zag
// deltas. Encoding an equal state yields identical bytes, which the
// handoff differential test asserts across the wire.
func (n *Node) Snapshot() *checkpoint.Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := &checkpoint.Snapshot{
		Kind: snapshotKind,
		Meta: map[string]int64{
			"k":        int64(n.cfg.K),
			"B":        int64(n.cfg.B),
			"universe": int64(n.cfg.Universe),
		},
		Sections: map[string][]byte{
			"stats": cachesim.AppendStats(nil, n.stats()),
		},
	}
	if rd, ok := n.cache.(recencyDumper); ok {
		s.Sections["warmset"] = appendWarmset(nil, rd)
	}
	return s
}

// appendWarmset encodes the cache's items LRU-first (the replay order:
// accessing each in turn rebuilds the identical recency list).
func appendWarmset(dst []byte, rd recencyDumper) []byte {
	mru := rd.AppendRecency(nil) // MRU-first
	dst = binary.AppendUvarint(dst, uint64(len(mru)))
	prev := int64(0)
	for i := len(mru) - 1; i >= 0; i-- { // reverse: LRU-first
		v := int64(mru[i])
		dst = binary.AppendVarint(dst, v-prev)
		prev = v
	}
	return dst
}

// Restore merges a handoff snapshot into the node: the warm set is
// replayed through the cache (LRU-first, so the recency order lands
// exactly as the sender had it) without touching the node's counters,
// then the sender's stats are added to them. Restoring into a fresh
// node therefore reproduces the sender's state — and its Snapshot
// bytes — exactly. A snapshot from a differently-shaped node (k, B,
// universe, or policy mismatch), or whose warm set does not decode
// whole inside the node's universe, is refused before any of it is
// applied.
func (n *Node) Restore(s *checkpoint.Snapshot) error {
	if s.Kind != snapshotKind {
		return fmt.Errorf("cluster: snapshot kind %q, want %q", s.Kind, snapshotKind)
	}
	for _, m := range [...]struct {
		key  string
		want int64
	}{{"k", int64(n.cfg.K)}, {"B", int64(n.cfg.B)}, {"universe", int64(n.cfg.Universe)}} {
		if got := s.MetaInt(m.key, -1); got != m.want {
			return fmt.Errorf("cluster: snapshot %s=%d, this node has %d", m.key, got, m.want)
		}
	}
	raw := s.Get("stats")
	if raw == nil {
		return fmt.Errorf("cluster: snapshot has no stats section")
	}
	st, rest, err := cachesim.DecodeStats(raw)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("cluster: %d trailing bytes in stats section", len(rest))
	}
	var warm []model.Item
	if ws := s.Get("warmset"); ws != nil {
		if warm, err = n.decodeWarmset(ws); err != nil {
			return err
		}
		if err := n.outsideUniverse(warm); err != nil {
			return fmt.Errorf("cluster: snapshot warm set: %w", err)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if st.Policy != n.cache.Name() {
		return fmt.Errorf("cluster: snapshot policy %q, this node runs %q", st.Policy, n.cache.Name())
	}
	// Replay accesses are not recorded: they reconstruct state, they
	// were already counted on the sender.
	for _, it := range warm {
		n.cache.Access(it)
	}
	n.handed.Add(st)
	return nil
}

// decodeWarmset decodes a warmset section into its items, LRU-first.
func (n *Node) decodeWarmset(ws []byte) ([]model.Item, error) {
	d := &payloadDecoder{b: ws}
	count, err := d.uvarint("warmset count")
	if err != nil {
		return nil, err
	}
	if count > uint64(n.cfg.K) || count > uint64(len(ws)) {
		return nil, fmt.Errorf("cluster: warmset declares %d items (cache holds %d, section has %d bytes)", count, n.cfg.K, len(ws))
	}
	items := make([]model.Item, 0, count)
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		delta, err := d.varint("warmset item delta")
		if err != nil {
			return nil, err
		}
		prev += delta
		if prev < 0 {
			return nil, fmt.Errorf("cluster: warmset decodes to negative item %d", prev)
		}
		items = append(items, model.Item(prev))
	}
	return items, d.done("warmset")
}

// acceptHandoff is the node side of a handoff frame.
func (n *Node) acceptHandoff(payload []byte) error {
	s, err := checkpoint.Decode(payload)
	if err != nil {
		return err
	}
	return n.Restore(s)
}

// HandoffTo drains the node, snapshots its state, and streams the
// snapshot to the cluster node at addr, waiting for the ack under
// timeout. On success the node stays drained (the caller typically
// exits); on failure it stays drained too, so the caller can retry a
// different target or Resume.
func (n *Node) HandoffTo(addr string, timeout time.Duration) error {
	n.Drain()
	raw := n.Snapshot().Encode()
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return fmt.Errorf("cluster: handoff dial %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout)) //nolint:errcheck // best-effort
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, fHandoffReq, raw); err != nil {
		return fmt.Errorf("cluster: handoff send to %s: %w", addr, err)
	}
	typ, payload, err := readFrame(bufio.NewReader(conn), nil)
	if err != nil {
		return fmt.Errorf("cluster: handoff ack from %s: %w", addr, err)
	}
	switch typ {
	case fHandoffResp:
		return nil
	case fError:
		we, derr := decodeErrorFrame(payload)
		if derr != nil {
			return derr
		}
		return we
	default:
		return fmt.Errorf("cluster: handoff answered with frame type %#02x", typ)
	}
}
