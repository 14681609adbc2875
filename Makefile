# gccache build/test/reproduction driver.

GO ?= go

.PHONY: all build vet lint lint-one test race cover bench bench-json bench-floor bench-selftest inline-check load-smoke scenario-smoke autotune-smoke cluster-smoke cluster-chaos repro repro-quick repro-check fuzz stress clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -s -l .)" || (gofmt -s -l . && echo 'gofmt: files need formatting (gofmt -s)' && exit 1)

# Run the repo's custom analyzers (see internal/analysis/): atomicfield,
# ctxflow, determinism, guardedby, hotalloc, hotalloctrans, reseed,
# sweepsafe. Built fresh so lint always reflects the working tree.
GCLINT = bin/gclint
lint:
	@mkdir -p bin
	$(GO) build -o $(GCLINT) ./cmd/gclint
	$(GO) vet -vettool=$(GCLINT) ./...

# Run one analyzer over one package pattern while iterating on it:
#   make lint-one A=atomicfield PKG=./internal/concurrent
# PKG defaults to the whole module. Fact-producing analyzers still see
# dependency facts — go vet analyzes the dependency units first.
A ?=
PKG ?= ./...
lint-one:
	@test -n "$(A)" || (echo 'usage: make lint-one A=<analyzer> [PKG=<pattern>]' && exit 1)
	@mkdir -p bin
	$(GO) build -o $(GCLINT) ./cmd/gclint
	$(GO) vet -vettool=$(GCLINT) -$(A) $(PKG)

test:
	$(GO) test ./...

# The engine's tests also run at GOMAXPROCS 1, 2 and 4: a spinning idle
# path must not starve the producer on one processor.
race:
	$(GO) test -race -cpu 1,2,4 ./internal/concurrent/
	$(GO) test -race ./internal/cachesim/ ./internal/experiments/

# Load-generator smoke: gcload's selfcheck (open + batch modes, full
# accounting verification) under the race detector — the fastest way to
# catch a data race in the serving engine's producer/worker plumbing.
load-smoke:
	$(GO) run -race ./cmd/gcload -selfcheck

# Scenario-corpus smoke: validate, compile, and fully replay every
# scenarios/*.gcs under the race detector (universe bounds, exact
# declared lengths, format round-trips — see corpus_test.go), plus the
# docs gate that diffs docs/SCENARIOS.md against the combinator
# registry, a short parser fuzz pass, and a short fuzz pass checking
# that the Zipf sampler's tables decide every draw as math/rand does.
scenario-smoke:
	$(GO) test -race -run 'TestScenarioCorpus|TestManual' ./internal/scenario/
	$(GO) test ./internal/scenario/ -run FuzzScenarioParse -fuzz FuzzScenarioParse -fuzztime 5s
	$(GO) test ./internal/zipf/ -run FuzzTableMatchesExact -fuzz FuzzTableMatchesExact -fuzztime 5s

# Autotune smoke: the §5.3 closed-loop acceptance gate under the race
# detector — on the drift scenario the controller must fire at least
# one live resize and land within 10% of the offline-optimal fixed
# split (internal/autotune/smoke_test.go), plus gcserve's replay
# differentials (autotune off ⇒ byte-identical replay, autotune on ⇒
# the same replay as autotune.Drive), the cluster-mode accounting
# check across a live resize, and gcload's apply loop resizing shard 0
# under its mutex while load streams run: a cyclic scan of 48 items
# at k=64, B=1 moves the split, and the step fails unless gcload
# reports at least one resize.
autotune-smoke:
	$(GO) test -race -run 'TestAutotuneSmokeDrift' -v ./internal/autotune/
	$(GO) test -race -run 'TestAutotune' ./internal/obs/serve/
	@out=$$($(GO) run -race ./cmd/gcload -autotune -shards 1 -streams 4 -ops 50000 \
		-k 64 -B 1 -workload 'cyclic:n=48,len=50000') || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out"; \
	printf '%s\n' "$$out" | grep -qE ', [1-9][0-9]* resizes' || { echo 'autotune-smoke: gcload applied no resize'; exit 1; }

# Cluster smoke: the full internal/cluster suite (ring, wire codec,
# breaker, node lifecycle, byte-identical handoff) plus gcload's
# in-process three-node loopback ring selfcheck, all under the race
# detector, and a short wire-decoder fuzz pass.
cluster-smoke:
	$(GO) test -race ./internal/cluster/... ./internal/obs/serve/
	$(GO) run -race ./cmd/gcload -cluster -selfcheck
	$(GO) test ./internal/cluster/ -run FuzzFrameDecode -fuzz FuzzFrameDecode -fuzztime 5s

# Chaos gate: the seeded kill/partition/heal/restart schedule against a
# four-node ring behind fault-injecting proxies, under the race
# detector. Asserts no lost acked ops, the accounting identity, bounded
# rejections, and per-event recovery (see internal/cluster/chaos_test.go).
cluster-chaos:
	$(GO) test -race -run TestClusterChaos -v ./internal/cluster/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Refresh BENCH_baseline.json: re-measure the replay/sweep/per-access
# hot-path benchmarks and record them under "current", preserving the
# committed "pre_change" section so the file tracks the performance
# trajectory (see DESIGN.md, Performance notes).
HOTPATH_BENCH = ^(BenchmarkRunTrace|BenchmarkRunTraceUndeclared|BenchmarkRunStream|BenchmarkReplayThroughput(Parallel)?|BenchmarkSweep|BenchmarkAccess(ItemLRU|BlockLRU|IBLP|GCM|AThreshold))$$
bench-json:
	$(GO) test -run '^$$' -bench '$(HOTPATH_BENCH)' -benchmem . | $(GO) run ./cmd/gcbenchjson -out BENCH_baseline.json

# Ops/sec floor gate: re-measure the end-to-end replay benchmark and
# fail if it regressed more than 20% against the ops/sec recorded in
# the committed BENCH_baseline.json. Does not rewrite the baseline.
bench-floor:
	$(GO) test -run '^$$' -bench '^BenchmarkReplayThroughput$$' -benchmem . \
		| $(GO) run ./cmd/gcbenchjson -out BENCH_baseline.json -write=false -floor 'BenchmarkReplayThroughput:0.8'

# Benchmark self-test: perfbench/ is its own Go module, so go build,
# vet, lint and test over ./... never compile it. This builds it against
# the working tree and runs every BENCHMARK.json workload once, checking
# each emits its metrics — the gate that the API it links against still
# fits.
bench-selftest:
	python3 perfbench/run.py --selftest

# Inlining gate: the per-item membership and net-change helpers run for
# every item a replay loads or evicts, so each must stay within the
# compiler's inlining budget. Losing one to a call has cost sim-loads
# 15–18% before. Net.Load and Net.Evict list each item ItemLRU, FIFO,
# Clock, Marking and RandomEvict move on a miss. GCM's find, insert and
# removeAt run for each item of its miss path, and randStream.Uint64
# for each sibling-shuffle draw. IBLP and BlockLRU find each request's
# block, and GCM each missed item's, with model's BlockShift.BlockOf (a
# shift under a power-of-two Fixed geometry). IBLP calls Dense's Back
# and Contains on each block admission, and PopBack for each item the
# resize path evicts; an item-layer eviction on admission is one
# ReplaceBack, a direct call like PushFront. Dense is generic, so its
# methods are compiled, and reported, as the go.shape.uint64 instance in
# the packages that use it (core here). The Recorder's Serve records an
# unprobed hit with its hit classifier (Set.Has and Set.Remove inside)
# and counts a hit's evictions with countItems; both must inline, so
# the hit path, which is nearly every request of sim-hits, calls only
# the policy's Access. Fails naming any helper the compiler will not
# inline.
INLINE_FUNCS = 'Set.Has' '(*Set).Add' 'Set.Remove' 'Set.Word' 'Set.RemoveWord' '(*Changes).Load' '(*Changes).Evict' '(*Net).Load' '(*Net).Evict' '(*GCM).find' '(*GCM).insert' '(*GCM).removeAt' '(*randStream).Uint64' '(*BlockShift).BlockOf' \
	'countItems' '(*Recorder).hit' \
	'lrulist.(*Dense[go.shape.uint64]).Contains' 'lrulist.(*Dense[go.shape.uint64]).Back' 'lrulist.(*Dense[go.shape.uint64]).PopBack'
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/bitset ./internal/cachesim ./internal/core ./internal/lrulist ./internal/model 2>&1) || { printf '%s\n' "$$out"; exit 1; }; \
	can=$$(printf '%s\n' "$$out" | awk '$$2 == "can" && $$3 == "inline" { print $$4 }'); \
	missing=0; for f in $(INLINE_FUNCS); do \
		printf '%s\n' "$$can" | grep -qxF -- "$$f" || { echo "inline-check: $$f does not inline"; missing=1; }; \
	done; \
	test $$missing = 0 && echo "inline-check: all $(words $(INLINE_FUNCS)) hot-path helpers inline"

# Regenerate every table/figure of the paper plus the validation
# experiments into results/ (exits non-zero if any claim fails).
repro:
	$(GO) run ./cmd/gcrepro -out results

repro-quick:
	$(GO) run ./cmd/gcrepro -out results -quick

# Byte-identity gate: run the full reproduction into a temp dir and fail
# on any difference from the committed results/, so "byte-identical
# replay" is checked rather than assumed. Run it before anything writes
# into results/ (repro-quick does).
repro-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run ./cmd/gcrepro -out "$$tmp" && diff -r results "$$tmp" && \
		echo "repro-check: $$(ls results | wc -l) files identical to results/"

# Fault-tolerance stress gate: the sweep, cancellation, injected-panic
# and checkpoint tests under the race detector (injected panics on
# pooled workers are exactly where poisoned-state races would hide),
# internal/faults and internal/checkpoint whole under it, plus a short
# fuzz smoke over every binary decoder a resumed run trusts (trace
# files, checkpoint snapshots, workload specs).
stress:
	$(GO) test -race -run 'Sweep|Ctx|ReplayCancels|ReplaySliceZeroAlloc|InjectedPanic|Checkpoint' \
		./internal/cachesim/ ./internal/conformance/ ./internal/opt/
	$(GO) test -race ./internal/faults/ ./internal/checkpoint/
	$(GO) test ./internal/trace/ -run FuzzReadArbitraryBytes -fuzz FuzzReadArbitraryBytes -fuzztime 2s
	$(GO) test ./internal/trace/ -run FuzzCheckpointDecode -fuzz FuzzCheckpointDecode -fuzztime 2s
	$(GO) test ./internal/workload/ -run FuzzFromSpec -fuzz FuzzFromSpec -fuzztime 2s

# Short fuzz passes over the parsing/serialization surfaces.
fuzz:
	$(GO) test ./internal/trace/ -fuzz FuzzReadArbitraryBytes -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzBinaryRoundTrip -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzReadText -fuzztime 30s
	$(GO) test ./internal/trace/ -fuzz FuzzCheckpointDecode -fuzztime 30s
	$(GO) test ./internal/workload/ -fuzz FuzzFromSpec -fuzztime 30s

clean:
	rm -rf results bin
	$(GO) clean -testcache
