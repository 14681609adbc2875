// Package faults is a deterministic, seeded fault-injection framework
// for testing the repository's failure paths: pooled sweep workers that
// panic mid-trace, and cluster connections that drop, partition or
// slow down.
//
// An Injector is built from a Plan — a seed plus per-fault-kind
// fractions — and decides purely from (seed, index, attempt) which grid
// indices panic and (in the network wiring, see Proxy) which
// connections are dropped, blackholed, or slowed. The decisions are
// stable hash functions, not draws from a shared rng, so an injected
// failure reproduces exactly regardless of how many workers run the
// sweep, which worker claims the index, or how many indices run in
// between. Tests assert against the Injector's own schedule
// (PanicIndices, DropIndices, PartitionIndices) instead of hard-coding
// index lists.
//
// For panics, call Step(i) inside the worker callback at the point the
// fault should strike (typically mid-trace, so the panic leaves
// genuinely poisoned policy state behind for the caller's recover and
// Reset to deal with).
package faults

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Plan configures an Injector. The zero value injects nothing.
type Plan struct {
	// Seed selects the fault schedule; two Injectors with equal Plans
	// fail at exactly the same indices.
	Seed int64
	// PanicFrac is the fraction of indices (hash-selected) whose
	// executions panic with an Injected value.
	PanicFrac float64
	// PanicAttempts is how many consecutive attempts at a selected
	// index panic before it succeeds: 1 means the first attempt fails
	// and the first retry succeeds. 0 defaults to 1.
	PanicAttempts int
	// DropFrac is the fraction of indices (connections, in the network
	// wiring) that are dropped outright: the netfaults proxy closes a
	// drop-scheduled connection before forwarding a byte, modelling a
	// crashed peer or a RST-happy middlebox.
	DropFrac float64
	// PartitionFrac is the fraction of indices that are partitioned:
	// the proxy accepts the connection but never forwards traffic in
	// either direction, modelling a network partition (packets
	// blackholed, no RST) — the failure mode that distinguishes a
	// timeout-aware client from one that hangs forever.
	PartitionFrac float64
	// ConnDelayFrac is the fraction of indices whose connections are
	// slowed: the proxy sleeps ConnDelay before starting to forward,
	// modelling a slow link or an overloaded peer.
	ConnDelayFrac float64
	// ConnDelay is the injected connection-level delay duration.
	ConnDelay time.Duration
}

// Injected is the panic value of an injected worker panic. It carries
// the index and attempt so a test that recovers it can tell which
// attempt at which index failed.
type Injected struct {
	Index   int
	Attempt int
}

// Error implements error so recovered values print cleanly.
func (p Injected) Error() string {
	return fmt.Sprintf("faults: injected panic at index %d (attempt %d)", p.Index, p.Attempt)
}

// Injector injects the faults scheduled by a Plan. Safe for concurrent
// use by sweep workers; attempt counts are tracked per index.
type Injector struct {
	plan Plan

	mu       sync.Mutex
	attempts map[int]int
}

// New returns an Injector for the plan.
func New(plan Plan) *Injector {
	if plan.PanicAttempts == 0 {
		plan.PanicAttempts = 1
	}
	return &Injector{plan: plan, attempts: make(map[int]int)}
}

// splitmix64 is the avalanche mix of the SplitMix64 generator — a
// stateless, high-quality 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chosen reports whether index i falls in the selected fraction for the
// fault kind tagged by salt.
func (in *Injector) chosen(i int, salt uint64, frac float64) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	h := splitmix64(uint64(in.plan.Seed) ^ salt ^ uint64(i)*0x9e3779b97f4a7c15)
	// Top 53 bits as a uniform float in [0, 1).
	return float64(h>>11)/float64(1<<53) < frac
}

// Each fault kind hashes under its own salt, so the kinds' schedules are
// independent. A salt is part of every schedule drawn under it, so the
// unused values 2 and 3 stay a gap rather than being renumbered.
const (
	saltPanic     = 0xfa017c_0001
	saltDrop      = 0xfa017c_0004
	saltPartition = 0xfa017c_0005
	saltConnDelay = 0xfa017c_0006
)

// ShouldPanic reports whether the given attempt (0-based) at index i is
// scheduled to panic.
func (in *Injector) ShouldPanic(i, attempt int) bool {
	if !in.chosen(i, saltPanic, in.plan.PanicFrac) {
		return false
	}
	return attempt < in.plan.PanicAttempts
}

// ShouldDrop reports whether connection (or generic index) i is
// scheduled to be dropped outright. Like every other decision it is a
// pure function of (seed, i), so a proxy replaying the same connection
// sequence drops exactly the same connections on every run.
func (in *Injector) ShouldDrop(i int) bool {
	return in.chosen(i, saltDrop, in.plan.DropFrac)
}

// ShouldPartition reports whether connection i is scheduled to be
// blackholed: accepted, never served, never reset.
func (in *Injector) ShouldPartition(i int) bool {
	return in.chosen(i, saltPartition, in.plan.PartitionFrac)
}

// ConnDelay returns the connection-level delay scheduled for index i:
// Plan.ConnDelay when i is delay-scheduled, 0 otherwise.
func (in *Injector) ConnDelay(i int) time.Duration {
	if in.chosen(i, saltConnDelay, in.plan.ConnDelayFrac) {
		return in.plan.ConnDelay
	}
	return 0
}

// DropIndices returns the sorted indices in [0, n) scheduled to drop —
// the oracle the chaos tests compare proxy behaviour against.
func (in *Injector) DropIndices(n int) []int {
	return in.schedule(n, in.ShouldDrop)
}

// PartitionIndices returns the sorted indices in [0, n) scheduled to be
// blackholed.
func (in *Injector) PartitionIndices(n int) []int {
	return in.schedule(n, in.ShouldPartition)
}

// Step records one execution attempt at index i and panics with an
// Injected value when that attempt is panic-scheduled. Call it from the
// sweep worker callback at the point the fault should strike.
func (in *Injector) Step(i int) {
	in.mu.Lock()
	attempt := in.attempts[i]
	in.attempts[i] = attempt + 1
	in.mu.Unlock()
	if in.ShouldPanic(i, attempt) {
		panic(Injected{Index: i, Attempt: attempt})
	}
}

// Attempts returns how many times Step has been called for index i.
func (in *Injector) Attempts(i int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.attempts[i]
}

// PanicIndices returns the sorted indices in [0, n) scheduled to panic
// on their first attempt — the oracle tests compare recovered panics
// against.
func (in *Injector) PanicIndices(n int) []int {
	return in.schedule(n, func(i int) bool { return in.ShouldPanic(i, 0) })
}

func (in *Injector) schedule(n int, pred func(int) bool) []int {
	var out []int
	for i := 0; i < n; i++ {
		if pred(i) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
