package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The host is shared. Other tenants slow every layer by up to 40%, in
// phases from a fraction of a second to minutes long, so a second of
// wall time is not a fixed amount of machine. Every timed segment of
// work is therefore followed at once by a fixed reference kernel, and
// time is reported in reference seconds: one reference second is the
// time of 1000 kernel runs measured next to the work. On the 2-vCPU Xeon
// the bounds were set on, this cut the spread of IBLP and GCM replay
// rates between 12-25 s windows from about 20% to about 6-7%. Raw
// wall-clock figures are printed beside the calibrated ones.

// calNominal is one kernel run in reference time, about its wall time
// on a quiet 2-vCPU Xeon, so reference and wall-clock figures read alike
// there.
const calNominal = time.Millisecond

// calBufs are the kernel's working sets, one per goroutine that runs it:
// 8 MiB each, so the kernel also feels other tenants' pressure on the
// shared last-level cache. On the Xeon it tracked both the
// small-footprint IBLP replays and the larger GCM ones slightly better
// than a 1 MiB buffer did.
var (
	calBufs [][]uint64
	calSink atomic.Uint64
)

// initCalibration allocates the buffers for up to par concurrent kernels.
func initCalibration(par int) {
	for range par {
		calBufs = append(calBufs, make([]uint64, 1<<20))
	}
}

// calibrate runs the reference kernel — a fixed xorshift walk of 80,000
// read-modify-writes over an 8 MiB buffer — on par goroutines at once and
// returns the wall time until the last one finishes. A workload that
// keeps several processors busy is calibrated with as many kernels: on a
// shared host, losing a processor to another tenant happens mostly when
// both of this machine's are busy, and a single kernel does not see it.
func calibrate(par int) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, buf := range calBufs[:par] {
		wg.Add(1)
		go func(buf []uint64) {
			defer wg.Done()
			x := uint64(88172645463325252)
			var s uint64
			for i := 0; i < 80_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := x & uint64(len(buf)-1)
				s += buf[j]
				buf[j] = s ^ x
			}
			calSink.Add(s)
		}(buf)
	}
	wg.Wait()
	return time.Since(t0)
}

// wireSegment is how long the wire clients run between kernel runs.
const wireSegment = 50 * time.Millisecond

// segment is one stretch of timed work and the kernel run after it.
type segment struct {
	reqs      int64         // requests completed
	wall, cpu time.Duration // wall and process CPU time of the work
	cal       time.Duration // the kernel run right after
	lat       []float64     // wall latency of each call, µs
}

// scale converts the segment's wall time to reference time.
func (s segment) scale() float64 { return float64(calNominal) / float64(s.cal) }

// timeCall runs fn as one segment that completes reqs requests, then
// par kernels, which it records as a span under parent in group. fn
// records its own span, so that the call's span ends before the kernel.
func timeCall(log *spanLog, parent, group uint64, par int, reqs int64, fn func()) segment {
	cpu0, t0 := cpuTime(), time.Now()
	fn()
	s := segment{reqs: reqs, wall: time.Since(t0), cpu: cpuTime() - cpu0}
	s.lat = []float64{float64(s.wall.Nanoseconds()) / 1e3}
	s.cal = calibrateSpan(log, parent, group, par)
	return s
}

// calibrateSpan runs par kernels and records them as a span.
func calibrateSpan(log *spanLog, parent, group uint64, par int) time.Duration {
	id, start := log.id(), log.now()
	d := calibrate(par)
	log.end(id, parent, group, "bench.calibrate", start)
	return d
}

// phaseOut is what one timed phase measured.
type phaseOut struct{ segs []segment }

// rates is each segment's completed requests per reference second.
func (o phaseOut) rates() []float64 {
	return o.each(func(s segment) float64 { return float64(s.reqs) / s.wall.Seconds() / s.scale() })
}

// rawRates is each segment's completed requests per wall second.
func (o phaseOut) rawRates() []float64 {
	return o.each(func(s segment) float64 { return float64(s.reqs) / s.wall.Seconds() })
}

// cpuPerReq is each segment's process CPU per completed request, in
// reference ns, over the segments that completed any.
func (o phaseOut) cpuPerReq() []float64 {
	var out []float64
	for _, s := range o.segs {
		if s.reqs > 0 {
			out = append(out, float64(s.cpu.Nanoseconds())*s.scale()/float64(s.reqs))
		}
	}
	return out
}

// latency is every call's latency in reference µs, or in wall-clock µs
// when raw.
func (o phaseOut) latency(raw bool) []float64 {
	var out []float64
	for _, s := range o.segs {
		k := s.scale()
		if raw {
			k = 1
		}
		for _, l := range s.lat {
			out = append(out, l*k)
		}
	}
	return out
}

func (o phaseOut) each(f func(segment) float64) []float64 {
	out := make([]float64, 0, len(o.segs))
	for _, s := range o.segs {
		out = append(out, f(s))
	}
	return out
}

// cpuPerWall is the phase's process CPU time over its wall time.
func (o phaseOut) cpuPerWall() float64 {
	var wall, cpu time.Duration
	for _, s := range o.segs {
		wall += s.wall
		cpu += s.cpu
	}
	return cpu.Seconds() / wall.Seconds()
}
