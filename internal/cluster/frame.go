// Package cluster turns gcserve into a multi-node cache ring: a
// length-prefixed binary wire protocol over TCP, a consistent-hash
// router (internal/cluster/ring) with per-node circuit breakers and
// capped-backoff retries on the client, and node lifecycle — drain,
// snapshot handoff via internal/checkpoint, restart — that keeps the
// ring serving through process kills and network partitions.
//
// The design goal is the one the chaos harness asserts: no acknowledged
// operation is ever lost (an ack means the full batch was applied and
// counted on some node), errors stay bounded while faults are active,
// and a node's policy state survives a graceful leave byte-identically
// on its handoff target. Fault semantics are at-least-once: a timed-out
// request may have been applied before the ack was lost, so a retry can
// double-apply — harmless for cache accesses, and the accounting
// identity (issued = served + retried-successfully + rejected) is kept
// on the client, where it is robust to node kills.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"gccache/internal/model"
)

// Frame types. A frame on the wire is one type byte, a uvarint payload
// length, then the payload — the same varint codec style as the
// gctrace format, so the decoder shares its hardening posture: every
// declared length is capped before a byte of it is trusted.
const (
	fAccessReq   = 0x01 // uvarint seq, uvarint count, count zig-zag item deltas
	fAccessResp  = 0x02 // uvarint seq, uvarint served, uvarint hits, uvarint misses
	fHealthReq   = 0x03 // empty
	fHealthResp  = 0x04 // state byte, uvarint accesses
	fHandoffReq  = 0x05 // checkpoint snapshot bytes
	fHandoffResp = 0x06 // empty
	fError       = 0x07 // uvarint code, uvarint len, message bytes
)

// Decoder limits. maxFramePayload bounds what a peer can make us buffer
// for a single frame; the others bound the per-field declarations
// inside a payload so a tiny frame cannot demand a huge allocation.
const (
	maxFramePayload = 1 << 24 // 16 MiB: a full handoff snapshot fits far below this
	maxBatchItems   = 1 << 16
	maxErrMsgLen    = 1 << 10
)

// DefaultReplicas is the virtual-node count every ring participant
// uses unless configured otherwise; consistent placement requires the
// clients and servers of one ring to agree on it (and on the seed).
const DefaultReplicas = 64

// Error codes carried by fError frames.
const (
	errDraining = 1 // node is draining or stopped: retry elsewhere
	errBadFrame = 2 // peer sent something the node refused to parse, or an item outside its universe
	errInternal = 3 // node-side failure applying a valid request
)

// WireError is a structured error returned by a node. IsDraining
// distinguishes "routed to a node that is leaving" — an expected,
// immediately-failover-able outcome — from protocol or node failures.
type WireError struct {
	Code uint64
	Msg  string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("cluster: node error %d: %s", e.Code, e.Msg)
}

// IsDraining reports whether the node rejected the request because it
// is draining: the caller should fail over without retrying this node.
func (e *WireError) IsDraining() bool { return e.Code == errDraining }

// appendFrame appends a complete frame (type, length, payload) to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// writeFrame writes one frame and flushes.
func writeFrame(bw *bufio.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("cluster: refusing to send %d-byte payload (cap %d)", len(payload), maxFramePayload)
	}
	var hdr [binary.MaxVarintLen64 + 1]byte
	hdr[0] = typ
	n := binary.PutUvarint(hdr[1:], uint64(len(payload)))
	if _, err := bw.Write(hdr[:1+n]); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// readFrame reads one frame, reusing buf for the payload when it fits.
// A declared length beyond maxFramePayload is rejected before any of it
// is read, so a hostile peer cannot make us allocate more than the cap.
func readFrame(br *bufio.Reader, buf []byte) (typ byte, payload []byte, err error) {
	typ, err = br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: truncated frame length: %w", err)
	}
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("cluster: frame payload %d exceeds cap %d", n, maxFramePayload)
	}
	if uint64(cap(buf)) >= n {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("cluster: truncated frame payload: %w", err)
	}
	return typ, payload, nil
}

// payloadDecoder walks a frame payload with bounds checking. Varints
// must be minimal-length: a value padded with zero continuation groups
// decodes to the same number but breaks the canonical-form guarantee
// (every accepted payload re-encodes byte-identically), so it is
// rejected like any other malformed input.
type payloadDecoder struct {
	b   []byte
	off int
}

// minimal reports whether the n-byte varint just read was the shortest
// encoding of its value: only a single-byte varint may end in 0x00.
func (d *payloadDecoder) minimal(n int) bool {
	return n == 1 || d.b[d.off+n-1] != 0
}

func (d *payloadDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("cluster: truncated %s", what)
	}
	if !d.minimal(n) {
		return 0, fmt.Errorf("cluster: non-minimal varint in %s", what)
	}
	d.off += n
	return v, nil
}

func (d *payloadDecoder) varint(what string) (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("cluster: truncated %s", what)
	}
	if !d.minimal(n) {
		return 0, fmt.Errorf("cluster: non-minimal varint in %s", what)
	}
	d.off += n
	return v, nil
}

func (d *payloadDecoder) done(what string) error {
	if d.off != len(d.b) {
		return fmt.Errorf("cluster: %d trailing bytes after %s", len(d.b)-d.off, what)
	}
	return nil
}

// appendAccessReq encodes an access request: the batch is delta
// zig-zag coded like a gctrace, so dense item runs cost ~1 byte each.
func appendAccessReq(dst []byte, seq uint64, items []model.Item) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	prev := int64(0)
	for _, it := range items {
		v := int64(it)
		dst = binary.AppendVarint(dst, v-prev)
		prev = v
	}
	return dst
}

// decodeAccessReq parses an access request payload, appending the items
// to dst (callers reuse the slice across frames).
func decodeAccessReq(p []byte, dst []model.Item) (seq uint64, items []model.Item, err error) {
	d := &payloadDecoder{b: p}
	if seq, err = d.uvarint("access seq"); err != nil {
		return 0, nil, err
	}
	n, err := d.uvarint("access item count")
	if err != nil {
		return 0, nil, err
	}
	if n > maxBatchItems {
		return 0, nil, fmt.Errorf("cluster: implausible batch of %d items (cap %d)", n, maxBatchItems)
	}
	// The count is capped AND each item needs ≥ 1 payload byte, so the
	// append below can never outgrow the frame it came from.
	if n > uint64(len(p)) {
		return 0, nil, fmt.Errorf("cluster: batch of %d items exceeds remaining input", n)
	}
	items = dst
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		delta, err := d.varint("access item delta")
		if err != nil {
			return 0, nil, err
		}
		prev += delta
		if prev < 0 {
			return 0, nil, fmt.Errorf("cluster: access batch decodes to negative item %d", prev)
		}
		items = append(items, model.Item(prev))
	}
	return seq, items, d.done("access request")
}

// accessResp is a node's answer to one access batch.
type accessResp struct {
	Seq    uint64
	Served uint64 // items applied — an ack covers the batch iff Served == len(batch)
	Hits   uint64
	Misses uint64
}

func appendAccessResp(dst []byte, r accessResp) []byte {
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, r.Served)
	dst = binary.AppendUvarint(dst, r.Hits)
	return binary.AppendUvarint(dst, r.Misses)
}

func decodeAccessResp(p []byte) (accessResp, error) {
	d := &payloadDecoder{b: p}
	var r accessResp
	var err error
	if r.Seq, err = d.uvarint("response seq"); err != nil {
		return r, err
	}
	if r.Served, err = d.uvarint("response served"); err != nil {
		return r, err
	}
	if r.Hits, err = d.uvarint("response hits"); err != nil {
		return r, err
	}
	if r.Misses, err = d.uvarint("response misses"); err != nil {
		return r, err
	}
	return r, d.done("access response")
}

// Node lifecycle states carried in health responses.
const (
	stateReady    = 0
	stateDraining = 1
	stateStopped  = 2
)

// healthResp reports a node's lifecycle state and access count.
type healthResp struct {
	State    byte
	Accesses uint64
}

func appendHealthResp(dst []byte, h healthResp) []byte {
	dst = append(dst, h.State)
	return binary.AppendUvarint(dst, h.Accesses)
}

func decodeHealthResp(p []byte) (healthResp, error) {
	var h healthResp
	if len(p) < 1 {
		return h, fmt.Errorf("cluster: empty health response")
	}
	h.State = p[0]
	if h.State > stateStopped {
		return h, fmt.Errorf("cluster: unknown node state %d", h.State)
	}
	d := &payloadDecoder{b: p, off: 1}
	var err error
	if h.Accesses, err = d.uvarint("health accesses"); err != nil {
		return h, err
	}
	return h, d.done("health response")
}

func appendErrorFrame(dst []byte, code uint64, msg string) []byte {
	if len(msg) > maxErrMsgLen {
		msg = msg[:maxErrMsgLen]
	}
	dst = binary.AppendUvarint(dst, code)
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	return append(dst, msg...)
}

func decodeErrorFrame(p []byte) (*WireError, error) {
	d := &payloadDecoder{b: p}
	code, err := d.uvarint("error code")
	if err != nil {
		return nil, err
	}
	n, err := d.uvarint("error message length")
	if err != nil {
		return nil, err
	}
	if n > maxErrMsgLen {
		return nil, fmt.Errorf("cluster: implausible error message length %d (cap %d)", n, maxErrMsgLen)
	}
	if n > uint64(len(p)-d.off) {
		return nil, fmt.Errorf("cluster: error message length %d exceeds remaining input", n)
	}
	msg := string(p[d.off : d.off+int(n)])
	d.off += int(n)
	return &WireError{Code: code, Msg: msg}, d.done("error frame")
}
