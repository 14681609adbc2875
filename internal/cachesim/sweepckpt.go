package cachesim

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"gccache/internal/checkpoint"
)

// SweepCheckpointConfig configures a checkpointed sweep.
type SweepCheckpointConfig struct {
	// Path is the snapshot file. When it exists and matches, completed
	// indices are loaded instead of recomputed; when empty, the sweep
	// runs without checkpointing.
	Path string
	// Every saves a snapshot after this many newly completed indices.
	// Zero means 64.
	Every int
	// Hash fingerprints the instance (trace, grid, policy config). A
	// snapshot with a different hash is rejected instead of silently
	// resuming the wrong run. Zero skips the check.
	Hash int64
}

const sweepSnapshotKind = "cachesim.sweep"

// SweepCheckpointed runs fn(i, w) for every index in [0, n), collecting
// each point's encoded result and periodically persisting completed
// work to cfg.Path via atomic snapshots. A resumed run loads the
// snapshot, skips the indices it covers, and — because results are
// assembled by index regardless of which run computed them — returns
// bytes identical to an uninterrupted run when fn is deterministic.
//
// On cancellation the partial state is saved before the ctx error is
// returned; a killed process resumes from the last periodic save.
func SweepCheckpointed[W any](ctx context.Context, n int, opt SweepOptions, cfg SweepCheckpointConfig,
	newWorker func() W, fn func(i int, w W) []byte) ([][]byte, error) {
	results := make([][]byte, n)
	if cfg.Every <= 0 {
		cfg.Every = 64
	}
	if cfg.Path != "" {
		if _, err := os.Stat(cfg.Path); err == nil {
			snap, err := checkpoint.Load(cfg.Path)
			if err != nil {
				return nil, err
			}
			if err := restoreSweepSnapshot(snap, n, cfg.Hash, results); err != nil {
				return nil, err
			}
		}
	}

	var prog ckptProgress
	save := func() error {
		if cfg.Path == "" {
			return nil
		}
		return checkpoint.Save(cfg.Path, sweepSnapshot(n, cfg.Hash, results))
	}
	err := Sweep(ctx, n, opt, newWorker, func(i int, w W) {
		if results[i] != nil {
			return // restored from the snapshot
		}
		out := fn(i, w)
		if out == nil {
			out = []byte{} // distinguish "ran, empty" from "not run"
		}
		prog.noteDone(results, i, out, cfg.Every, save)
	})
	if serr := prog.err(); serr != nil {
		return nil, serr
	}
	// Persist the final state: complete on success, partial on
	// cancellation so the next run picks up exactly here.
	if serr := save(); serr != nil && err == nil {
		err = serr
	}
	return results, err
}

// ckptProgress is SweepCheckpointed's shared save bookkeeping. Worker
// callbacks funnel every completion through noteDone, so the sweep
// callback itself performs no captured writes (sweepsafe-clean without
// waivers) and the locking discipline on the fields below is
// machine-checked by the guardedby analyzer.
type ckptProgress struct {
	mu sync.Mutex
	//gclint:guardedby mu
	sinceSave int // completed points since the last snapshot
	//gclint:guardedby mu
	saveErr error // first failed save; sticky, stops further saves
}

// noteDone records one completed grid point and snapshots every `every`
// completions. results is written under mu because save reads the whole
// slice: a concurrent slot write outside the lock would race with an
// in-progress snapshot.
func (p *ckptProgress) noteDone(results [][]byte, i int, out []byte, every int, save func() error) {
	p.mu.Lock()
	results[i] = out
	p.sinceSave++
	if p.sinceSave >= every && p.saveErr == nil {
		p.sinceSave = 0
		p.saveErr = save()
	}
	p.mu.Unlock()
}

// err returns the sticky save failure, if any.
func (p *ckptProgress) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.saveErr
}

// sweepSnapshot encodes the completed indices in index order: for each
// non-nil result, uvarint(index), uvarint(len), bytes.
func sweepSnapshot(n int, hash int64, results [][]byte) *checkpoint.Snapshot {
	var body []byte
	done := int64(0)
	for i, r := range results {
		if r == nil {
			continue
		}
		done++
		body = binary.AppendUvarint(body, uint64(i))
		body = binary.AppendUvarint(body, uint64(len(r)))
		body = append(body, r...)
	}
	return &checkpoint.Snapshot{
		Kind:     sweepSnapshotKind,
		Meta:     map[string]int64{"n": int64(n), "done": done, "hash": hash},
		Sections: map[string][]byte{"results": body},
	}
}

func restoreSweepSnapshot(snap *checkpoint.Snapshot, n int, hash int64, results [][]byte) error {
	if snap.Kind != sweepSnapshotKind {
		return fmt.Errorf("cachesim: snapshot kind %q is not a sweep checkpoint", snap.Kind)
	}
	if got := snap.MetaInt("n", -1); got != int64(n) {
		return fmt.Errorf("cachesim: snapshot is for a %d-point sweep, want %d", got, n)
	}
	if hash != 0 {
		if got := snap.MetaInt("hash", 0); got != hash {
			return fmt.Errorf("cachesim: snapshot instance hash %#x does not match %#x", got, hash)
		}
	}
	body := snap.Get("results")
	for len(body) > 0 {
		idx, k := binary.Uvarint(body)
		if k <= 0 {
			return fmt.Errorf("cachesim: truncated snapshot index")
		}
		body = body[k:]
		if idx >= uint64(n) {
			return fmt.Errorf("cachesim: snapshot index %d out of range", idx)
		}
		sz, k := binary.Uvarint(body)
		if k <= 0 {
			return fmt.Errorf("cachesim: truncated snapshot result length")
		}
		body = body[k:]
		if sz > uint64(len(body)) {
			return fmt.Errorf("cachesim: snapshot result length %d exceeds body", sz)
		}
		if results[idx] != nil {
			return fmt.Errorf("cachesim: duplicate snapshot index %d", idx)
		}
		results[idx] = append([]byte{}, body[:sz]...)
		body = body[sz:]
	}
	return nil
}
