package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gccache/internal/model"
)

// Source is an incremental stream of item requests — the streaming
// counterpart of a materialized Trace. The iteration protocol is the
// bufio.Scanner shape:
//
//	for src.Next() {
//		use src.Item()
//	}
//	if err := src.Err(); err != nil { ... }
//
// Next reports whether an item is available; Item returns it (valid
// until the next call to Next); Err returns the first error that
// terminated the stream, or nil after clean exhaustion. Sources are
// single-pass and not safe for concurrent use.
type Source interface {
	Next() bool
	Item() model.Item
	Err() error
}

// maxPrealloc caps how many items any trace decoder preallocates from a
// length field it has not yet verified against real data: a corrupt or
// adversarial header must not be able to reserve gigabytes before the
// first request byte is read. Longer traces simply grow by append.
const maxPrealloc = 1 << 20

// maxTextLine is the longest line (in bytes) the text decoders accept —
// far beyond any plausible item ID, so in practice it only bounds junk
// and comment lines.
const maxTextLine = 1 << 20

// Scanner incrementally decodes the gctrace binary format (see Write):
// replaying a trace through it needs O(1) memory regardless of trace
// length. The header is validated by NewScanner; each Next decodes one
// delta-encoded request without allocating.
type Scanner struct {
	br       *bufio.Reader
	declared uint64 // length from the header
	read     uint64 // requests decoded so far
	prev     uint64
	cur      model.Item
	err      error
}

var _ Source = (*Scanner)(nil)

// NewScanner reads and validates the binary header on r and returns a
// Scanner positioned at the first request. If r is already a
// *bufio.Reader it is used directly; otherwise it is wrapped.
func NewScanner(r io.Reader) (*Scanner, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:])
	}
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: read length: %w", err)
	}
	const maxLen = 1 << 32
	if length > maxLen {
		return nil, fmt.Errorf("trace: implausible length %d", length)
	}
	return &Scanner{br: br, declared: length}, nil
}

// errVarintOverflow mirrors encoding/binary's overflow error for the
// inlined decoder below.
var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// Next decodes the next request. It returns false at the end of the
// declared length or on the first decode error (see Err).
//
//gclint:hotpath
func (s *Scanner) Next() bool {
	if s.err != nil || s.read >= s.declared {
		return false
	}
	delta, err := s.readVarint()
	if err != nil {
		s.fail(err) //gclint:allowalloc terminal error path; Next returns false forever after
		return false
	}
	cur := uint64(int64(s.prev) + delta)
	s.cur = model.Item(cur)
	s.prev = cur
	s.read++
	return true
}

// readVarint is binary.ReadVarint specialized to the concrete
// *bufio.Reader: same wire format and error behaviour, but no
// io.ByteReader boxing on the per-request path.
//
//gclint:hotpath
func (s *Scanner) readVarint() (int64, error) {
	var ux uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := s.br.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errVarintOverflow
			}
			ux |= uint64(b) << shift
			// Zig-zag decode (the inverse of Write's PutVarint).
			x := int64(ux >> 1)
			if ux&1 != 0 {
				x = ^x
			}
			return x, nil
		}
		ux |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, errVarintOverflow
}

// fail records the first decode error, positioned at the request that
// could not be read (cold path, kept out of Next for the hot-path
// allocation rule).
func (s *Scanner) fail(err error) {
	s.err = fmt.Errorf("trace: read request %d: %w", s.read, err)
}

// Item returns the most recently decoded request.
func (s *Scanner) Item() model.Item { return s.cur }

// Err returns the first error encountered, or nil after clean
// exhaustion of the declared length.
func (s *Scanner) Err() error { return s.err }

// Declared returns the request count from the header. It is untrusted
// until the stream has been fully consumed: a truncated file declares
// more than it delivers.
func (s *Scanner) Declared() uint64 { return s.declared }

// Scanned returns the number of requests decoded so far.
func (s *Scanner) Scanned() uint64 { return s.read }

// TextScanner incrementally parses the plain-text trace format (one
// decimal item ID per line, blank lines and '#' comments skipped) in
// O(1) memory. Lines up to maxTextLine bytes are accepted; parse and
// scan errors carry the 1-based line number.
type TextScanner struct {
	sc   *bufio.Scanner
	line int
	cur  model.Item
	err  error
}

var _ Source = (*TextScanner)(nil)

// NewTextScanner returns a TextScanner over r.
func NewTextScanner(r io.Reader) *TextScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxTextLine)
	return &TextScanner{sc: sc}
}

// Next advances to the next item line. It returns false at EOF or on
// the first malformed line (see Err).
//
//gclint:hotpath
func (s *TextScanner) Next() bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.line++
		b := trimSpace(s.sc.Bytes())
		if len(b) == 0 || b[0] == '#' {
			continue
		}
		v, ok := parseUint(b)
		if !ok {
			s.failParse(b) //gclint:allowalloc terminal error path; Next returns false forever after
			return false
		}
		s.cur = model.Item(v)
		return true
	}
	s.failScan(s.sc.Err()) //gclint:allowalloc end-of-stream path; runs once per scan
	return false
}

// failParse records a malformed-line error (cold path).
func (s *TextScanner) failParse(b []byte) {
	s.err = fmt.Errorf("trace: line %d: %q is not an item ID", s.line, b)
}

// failScan records a scanner error, pointing at the line where the scan
// stopped — bufio.ErrTooLong on a monster line would otherwise surface
// bare, with no way to find the offending input (cold path).
func (s *TextScanner) failScan(err error) {
	if err == nil {
		return
	}
	s.err = fmt.Errorf("trace: line %d: %w", s.line+1, err)
}

// Item returns the most recently parsed request.
func (s *TextScanner) Item() model.Item { return s.cur }

// Err returns the first error encountered, or nil at clean EOF.
func (s *TextScanner) Err() error { return s.err }

// Line returns the 1-based number of the last line consumed.
func (s *TextScanner) Line() int { return s.line }

// trimSpace is bytes.TrimSpace restricted to ASCII whitespace — all the
// text format ever emits — without the unicode table lookups.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && asciiSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && asciiSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// parseUint is strconv.ParseUint(b, 10, 64) over bytes, allocation-free
// so TextScanner.Next stays off the garbage path on well-formed input.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false // overflow
		}
		v = v*10 + d
	}
	return v, true
}

// SliceSource adapts an in-memory Trace to the Source interface — the
// reference source the stream-vs-slice differential tests compare file
// scanners against.
type SliceSource struct {
	t Trace
	i int // items yielded so far
}

var _ Source = (*SliceSource)(nil)

// NewSliceSource returns a Source yielding t in order.
func NewSliceSource(t Trace) *SliceSource { return &SliceSource{t: t} }

// Next implements Source.
//
//gclint:hotpath
func (s *SliceSource) Next() bool {
	if s.i >= len(s.t) {
		return false
	}
	s.i++
	return true
}

// Item implements Source.
func (s *SliceSource) Item() model.Item { return s.t[s.i-1] }

// Take yields the next min(n, remaining) items at once, as that many
// calls to Next would, and returns them (n ≥ 0); the slice aliases the
// trace. Replay serves a slice source in chunks taken this way.
func (s *SliceSource) Take(n int) Trace {
	chunk := s.t[s.i:min(s.i+n, len(s.t))]
	s.i += len(chunk)
	return chunk
}

// Err implements Source; a slice never fails.
func (s *SliceSource) Err() error { return nil }
