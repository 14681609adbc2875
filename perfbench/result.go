package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// def is a metric's unit and the base a ratio or rate is taken over.
type def struct{ unit, base string }

// metric is one named figure: either a series of per-pass samples
// (reported as their median, with quartiles) or a single exact value.
type metric struct {
	name    string
	def     def
	samples []float64
	// pct, when positive, reports that percentile of the samples (exact
	// nearest rank) instead of their median.
	pct float64
	// raw, when set, is the same figure in wall-clock time.
	raw *float64
	// frozen, once set, replaces the samples (see result.freeze).
	frozen *summary
}

// result collects a run's metrics and its output checks.
type result struct {
	attempted, failed int64
	failures          []string
	metrics           []*metric
	byName            map[string]*metric
}

func newResult() *result { return &result{byName: make(map[string]*metric)} }

func (r *result) get(name string) *metric {
	m := r.byName[name]
	if m == nil {
		d, ok := defs[name]
		if !ok {
			panic("perfbench: undefined metric " + name)
		}
		m = &metric{name: name, def: d}
		r.byName[name] = m
		r.metrics = append(r.metrics, m)
	}
	return m
}

// sample adds one per-pass observation of a median-reported metric.
func (r *result) sample(name string, x float64) {
	m := r.get(name)
	m.samples = append(m.samples, x)
}

// samples adds per-pass observations of a median-reported metric.
func (r *result) samples(name string, xs []float64) {
	m := r.get(name)
	m.samples = append(m.samples, xs...)
}

// set records an exact, single-valued metric.
func (r *result) set(name string, x float64) {
	m := r.get(name)
	m.samples = append(m.samples[:0], x)
}

// percentile records the q-th percentile (0 < q < 1) of xs.
func (r *result) percentile(name string, q float64, xs []float64) {
	m := r.get(name)
	m.samples = append(m.samples[:0], xs...)
	m.pct = q
}

// raw records the wall-clock counterpart of a calibrated metric.
func (r *result) raw(name string, x float64) { r.get(name).raw = &x }

// op counts one checked operation; a false ok counts it as failed.
func (r *result) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// passed counts n checked operations that all succeeded.
func (r *result) passed(n int64) { r.attempted += n }

// summary is a metric's reported value and its spread over samples.
type summary struct {
	value, q1, median, q3 float64
	n                     int
}

func (m *metric) summary() summary {
	if m.frozen != nil {
		return *m.frozen
	}
	xs := append([]float64(nil), m.samples...)
	sort.Float64s(xs)
	s := summary{n: len(xs)}
	if len(xs) == 0 {
		s.value = math.NaN()
		return s
	}
	s.q1, s.median, s.q3 = rank(xs, 0.25), median(xs), rank(xs, 0.75)
	s.value = s.median
	if m.pct > 0 {
		s.value = rank(xs, m.pct)
	}
	return s
}

// freeze summarizes every metric recorded so far and drops its samples,
// so that the heap measured next does not depend on how many were kept.
func (r *result) freeze() {
	for _, m := range r.metrics {
		s := m.summary()
		m.frozen, m.samples = &s, nil
	}
}

// medianOf is the median of xs in any order.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// median of sorted xs, averaging the middle pair for even counts.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// rank is the nearest-rank q-th percentile of sorted xs: the smallest
// sample with at least a q share of the samples at or below it.
func rank(xs []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// label names which statistic a metric reports.
func (m *metric) label() string {
	if m.pct > 0 {
		return fmt.Sprintf("p%g", m.pct*100)
	}
	return "median"
}

// reportEntry is one metric in the full report file.
type reportEntry struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Base   string   `json:"base"`
	Stat   string   `json:"stat"`
	N      int      `json:"n"`
	Q1     float64  `json:"q1"`
	Median float64  `json:"median"`
	Q3     float64  `json:"q3"`
	Raw    *float64 `json:"raw_wall_clock,omitempty"`
}

// report is every metric with its spread, for the full report file.
func (r *result) report() map[string]reportEntry {
	out := make(map[string]reportEntry)
	for _, m := range r.metrics {
		s := m.summary()
		if s.n == 0 {
			continue
		}
		out[m.name] = reportEntry{Value: s.value, Unit: m.def.unit, Base: m.def.base, Stat: m.label(),
			N: s.n, Q1: s.q1, Median: s.median, Q3: s.q3, Raw: m.raw}
	}
	return out
}

// write prints the failed checks and one detail line per metric, then
// the result object as the last line.
func (r *result) write(w io.Writer) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric)
	for _, m := range r.metrics {
		s := m.summary()
		if math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			r.op(false, "metric %s has no finite value", m.name)
			continue
		}
		raw := ""
		if m.raw != nil {
			raw = fmt.Sprintf(" [wall clock: %.6g]", *m.raw)
		}
		fmt.Fprintf(w, "perfbench: %-36s %14.6g %-9s %-6s of n=%-7d q1 %-11.6g median %-11.6g q3 %-11.6g %s%s\n",
			m.name, s.value, m.def.unit, m.label(), s.n, s.q1, s.median, s.q3, m.def.base, raw)
		metrics[m.name] = jsonMetric{Value: s.value, Unit: m.def.unit}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "perfbench: check failed: %s\n", f)
	}
	attempted, failed := r.attempted, r.failed
	if attempted < 1 {
		attempted, failed = 1, 1
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
