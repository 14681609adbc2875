package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"gccache/internal/render"
)

// Suite bundles the ready-made probes behind one Probe, built from the
// comma-separated spec the cmd tools expose as -probe:
//
//	counters              per-kind atomic event counters (always on)
//	window=W              per-kind counts over the last windows of W requests
//	events=N              ring-buffer log of the last N events
//	reuse                 reuse-distance histogram
//	gaps                  inter-miss-gap histogram
//	residency             residency-time histogram
//	misscurve=W           per-window miss-ratio samples
//	all                   everything, with default sizes
//
// Counters are always enabled; the other sections only when named.
// A Suite is safe for concurrent use (each member probe synchronizes
// internally), so one Suite can be attached across every shard of a
// concurrent.Sharded.
type Suite struct {
	Counters  *Counters
	Windowed  *Windowed
	Events    *EventLog
	Reuse     *ReuseDist
	Gaps      *InterMissGap
	Residency *Residency
	Curve     *MissCurve

	probes []Probe
}

var _ Probe = (*Suite)(nil)

// Default sizes for spec entries given without a value.
const (
	defaultEventLog  = 64
	defaultWindow    = 1 << 12
	defaultCurvePts  = 256
	defaultRingCount = 16
)

// NewSuite parses spec (see Suite) and returns the bundled probe. An
// empty spec yields a counters-only suite.
func NewSuite(spec string) (*Suite, error) {
	s := &Suite{Counters: &Counters{}}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, hasVal := strings.Cut(field, "=")
		key = strings.TrimSpace(strings.ToLower(key))
		n := 0
		if hasVal {
			var err error
			n, err = strconv.Atoi(strings.TrimSpace(val))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("obs: bad probe spec value %q (want positive integer)", field)
			}
		}
		switch key {
		case "counters":
			// always on
		case "window":
			if !hasVal {
				n = defaultWindow
			}
			s.Windowed = NewWindowed(n, defaultRingCount)
		case "events":
			if !hasVal {
				n = defaultEventLog
			}
			s.Events = NewEventLog(n)
		case "reuse":
			s.Reuse = NewReuseDist()
		case "gaps":
			s.Gaps = NewInterMissGap()
		case "residency":
			s.Residency = NewResidency()
		case "misscurve":
			if !hasVal {
				n = defaultWindow
			}
			s.Curve = NewMissCurve(n, defaultCurvePts)
		case "all":
			s.Windowed = NewWindowed(defaultWindow, defaultRingCount)
			s.Events = NewEventLog(defaultEventLog)
			s.Reuse = NewReuseDist()
			s.Gaps = NewInterMissGap()
			s.Residency = NewResidency()
			s.Curve = NewMissCurve(defaultWindow, defaultCurvePts)
		default:
			return nil, fmt.Errorf("obs: unknown probe %q (want counters, window=W, events=N, reuse, gaps, residency, misscurve=W, or all)", key)
		}
	}
	s.probes = append(s.probes, s.Counters)
	if s.Windowed != nil {
		s.probes = append(s.probes, s.Windowed)
	}
	if s.Events != nil {
		s.probes = append(s.probes, s.Events)
	}
	if s.Reuse != nil {
		s.probes = append(s.probes, s.Reuse)
	}
	if s.Gaps != nil {
		s.probes = append(s.probes, s.Gaps)
	}
	if s.Residency != nil {
		s.probes = append(s.probes, s.Residency)
	}
	if s.Curve != nil {
		s.probes = append(s.probes, s.Curve)
	}
	return s, nil
}

// SpecHelp describes the -probe grammar for command --help output.
const SpecHelp = `probe spec (comma separated): counters, window=W, events=N, reuse, gaps, residency, misscurve=W, all`

// Observe implements Probe, fanning the event to every enabled member.
func (s *Suite) Observe(e Event) {
	for _, p := range s.probes {
		p.Observe(e)
	}
}

// CountersTable renders the per-kind totals (and, if a window probe is
// enabled, the counts of the last completed window).
func (s *Suite) CountersTable() *render.Table {
	t := &render.Table{Title: "event counters", Headers: []string{"event", "total"}}
	var last [NumKinds]int64
	haveLast := false
	if s.Windowed != nil {
		if l, ok := s.Windowed.Last(); ok {
			last, haveLast = l, true
			t.Headers = append(t.Headers, fmt.Sprintf("last %d-request window", s.Windowed.Window()))
		}
	}
	snap := s.Counters.Snapshot()
	for k := 0; k < NumKinds; k++ {
		if snap[k] == 0 && (!haveLast || last[k] == 0) {
			continue
		}
		if haveLast {
			t.AddRow(Kind(k).String(), snap[k], last[k])
		} else {
			t.AddRow(Kind(k).String(), snap[k])
		}
	}
	if haveLast {
		t.AddRow("items-loaded", s.Counters.ItemsLoaded(), "-")
	} else {
		t.AddRow("items-loaded", s.Counters.ItemsLoaded())
	}
	return t
}

// WriteTo renders every enabled section as aligned text — the dump
// behind gcsim -probe and the gcserve dashboard.
func (s *Suite) WriteTo(w io.Writer) (int64, error) {
	if err := s.CountersTable().WriteText(w); err != nil {
		return 0, err
	}
	for _, h := range []*Histogram{s.histOrNil(s.Reuse), s.gapsOrNil(), s.resOrNil()} {
		if h == nil {
			continue
		}
		fmt.Fprintln(w)
		if _, err := h.WriteTo(w); err != nil {
			return 0, err
		}
	}
	if s.Curve != nil {
		fmt.Fprintln(w)
		if _, err := s.Curve.WriteTo(w); err != nil {
			return 0, err
		}
	}
	if s.Events != nil {
		fmt.Fprintf(w, "\n== recent events (last %d of %d) ==\n", len(s.Events.Snapshot()), s.Events.Seq())
		if _, err := s.Events.WriteTo(w); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

func (s *Suite) histOrNil(r *ReuseDist) *Histogram {
	if r == nil {
		return nil
	}
	return r.Hist()
}

func (s *Suite) gapsOrNil() *Histogram {
	if s.Gaps == nil {
		return nil
	}
	return s.Gaps.Hist()
}

func (s *Suite) resOrNil() *Histogram {
	if s.Residency == nil {
		return nil
	}
	return s.Residency.Hist()
}
