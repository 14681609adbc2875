package main

import (
	"fmt"

	"gccache/internal/model"
	"gccache/internal/scenario"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// Cache shapes shared by every workload.
const (
	blockSize = 64   // B
	simK      = 4096 // sim replay and serve engine capacity (total)
	nodeK     = 2048 // per cluster node
	numNodes  = 2    // cluster nodes
	wireBatch = 64   // items per client batch before routing

	// gcmPrefix is how much of the serve and wire input their GCM
	// replays take: a ~60 ms replay, short enough for the reference
	// kernel after it to track the host (see segments.go).
	gcmPrefix = 1 << 16
)

// blockRunsProgram is the scenario-DSL form of the serve/wire input shape,
// drained by the scenario.ns_per_item probe on those workloads.
const blockRunsProgram = "emit take(blocks(zipf(n=4096, s=1.2), B=64, run=8), n=262144)\n"

// input is everything a workload's runs replay, generated from the seed
// before any timing starts.
type input struct {
	g    *model.Fixed
	tr   trace.Trace
	u    int               // item universe, rounded up to whole blocks
	prog *scenario.Program // the scenario the scenario probe drains
	seed int64
}

// workloadSpec names a workload's input and which main phase runs it.
type workloadSpec struct {
	kind     string // "sim", "serve" or "wire"
	scenario string // scenario file, relative to the repository root
}

var workloads = map[string]workloadSpec{
	"sim-hits":  {kind: "sim", scenario: "scenarios/drift.gcs"},
	"sim-loads": {kind: "sim", scenario: "scenarios/storage-server.gcs"},
	"serve":     {kind: "serve"},
	"wire":      {kind: "wire"},
}

// makeInput generates the workload's requests from seed: the scenario
// file compiled with seed for the sim workloads, the BlockRuns shape of
// the engine throughput benchmark (4096 blocks, B=64, mean run 8,
// Zipf 1.2, 2^18 requests) for serve and wire.
func makeInput(w workloadSpec, seed int64) (*input, error) {
	in := &input{g: model.NewFixed(blockSize), seed: seed}
	var err error
	if w.scenario != "" {
		if in.prog, _, err = scenario.Load(w.scenario); err != nil {
			return nil, err
		}
		if in.tr, err = scenario.Trace(in.prog, seed); err != nil {
			return nil, err
		}
	} else {
		in.tr, err = workload.BlockRuns(workload.BlockRunsConfig{
			NumBlocks: 4096, BlockSize: blockSize, MeanRunLength: 8,
			ZipfS: 1.2, Length: 1 << 18, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		if in.prog, err = scenario.Parse("blockruns.gcs", blockRunsProgram); err != nil {
			return nil, err
		}
	}
	if len(in.tr) == 0 {
		return nil, fmt.Errorf("empty input")
	}
	in.u = model.ItemUniverse(in.g, in.tr.Universe())
	return in, nil
}
