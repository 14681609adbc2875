package cachesim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"gccache/internal/checkpoint"
)

func ckptResult(i int) []byte {
	var b []byte
	return binary.AppendUvarint(b, uint64(i)*13+7)
}

func TestSweepCheckpointedNoPathRuns(t *testing.T) {
	got, err := SweepCheckpointed(context.Background(), 100, SweepOptions{Workers: 4}, SweepCheckpointConfig{},
		noWorker,
		func(i int, _ struct{}) []byte { return ckptResult(i) })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if !bytes.Equal(r, ckptResult(i)) {
			t.Fatalf("index %d result %v", i, r)
		}
	}
}

func TestSweepCheckpointedResumeIsByteIdentical(t *testing.T) {
	const n = 500
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	cfg := SweepCheckpointConfig{Path: path, Every: 16, Hash: 0xfeed}

	// Uninterrupted reference run (no checkpointing involved).
	want, err := SweepCheckpointed(context.Background(), n, SweepOptions{Workers: 4}, SweepCheckpointConfig{},
		noWorker,
		func(i int, _ struct{}) []byte { return ckptResult(i) })
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel partway through.
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	_, err = SweepCheckpointed(ctx, n, SweepOptions{Workers: 1}, cfg,
		noWorker,
		func(i int, _ struct{}) []byte {
			done++
			if done == n/3 {
				cancel()
			}
			return ckptResult(i)
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written before cancellation: %v", err)
	}

	// Resume: the restored indices must be skipped, the rest computed,
	// and the assembled results byte-identical to the reference.
	var recomputed atomic.Int64
	got, err := SweepCheckpointed(context.Background(), n, SweepOptions{Workers: 4}, cfg,
		noWorker,
		func(i int, _ struct{}) []byte {
			recomputed.Add(1)
			return ckptResult(i)
		})
	if err != nil {
		t.Fatal(err)
	}
	if recomputed.Load() >= n {
		t.Errorf("resume recomputed all %d indices — snapshot ignored", recomputed.Load())
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("index %d: resumed %v, uninterrupted %v", i, got[i], want[i])
		}
	}

	// The final snapshot must now cover all n indices.
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.MetaInt("done", 0) != n {
		t.Errorf("final snapshot done = %d, want %d", snap.MetaInt("done", 0), n)
	}
}

func TestSweepCheckpointedRejectsMismatchedSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	run := func(n int, hash int64) error {
		_, err := SweepCheckpointed(context.Background(), n, SweepOptions{Workers: 1},
			SweepCheckpointConfig{Path: path, Hash: hash},
			noWorker,
			func(i int, _ struct{}) []byte { return ckptResult(i) })
		return err
	}
	if err := run(50, 1); err != nil {
		t.Fatal(err)
	}
	if err := run(60, 1); err == nil {
		t.Error("snapshot for n=50 accepted by n=60 sweep")
	}
	if err := run(50, 2); err == nil {
		t.Error("snapshot with hash 1 accepted by hash-2 sweep")
	}
	if err := run(50, 1); err != nil {
		t.Errorf("matching resume rejected: %v", err)
	}
}

func TestSweepCheckpointedRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	if _, err := SweepCheckpointed(context.Background(), 20, SweepOptions{Workers: 1},
		SweepCheckpointConfig{Path: path},
		noWorker,
		func(i int, _ struct{}) []byte { return ckptResult(i) }); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SweepCheckpointed(context.Background(), 20, SweepOptions{Workers: 1},
		SweepCheckpointConfig{Path: path},
		noWorker,
		func(i int, _ struct{}) []byte { return ckptResult(i) }); err == nil {
		t.Fatal("corrupt snapshot silently accepted")
	}
}

func TestSweepCheckpointedEmptyResultIsRestored(t *testing.T) {
	// A point whose fn legitimately returns nil/empty must still count as
	// done in the snapshot, not be re-run forever.
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	cfg := SweepCheckpointConfig{Path: path, Every: 1}
	if _, err := SweepCheckpointed(context.Background(), 5, SweepOptions{Workers: 1}, cfg,
		noWorker,
		func(i int, _ struct{}) []byte { return nil }); err != nil {
		t.Fatal(err)
	}
	ran := 0
	got, err := SweepCheckpointed(context.Background(), 5, SweepOptions{Workers: 1}, cfg,
		noWorker,
		func(i int, _ struct{}) []byte { ran++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Errorf("resume re-ran %d empty-result indices", ran)
	}
	for i, r := range got {
		if r == nil || len(r) != 0 {
			t.Errorf("index %d restored as %v, want empty non-nil", i, r)
		}
	}
}

func TestStatsCodecRoundTrip(t *testing.T) {
	in := []Stats{
		{Policy: "lru", Accesses: 100, Hits: 60, Misses: 40, SpatialHits: 10,
			TemporalHits: 50, ItemsLoaded: 45, Evictions: 30},
		{Policy: "", Accesses: -1},
		{Policy: "gcm/k=32"},
	}
	var enc []byte
	for _, s := range in {
		enc = AppendStats(enc, s)
	}
	rest := enc
	for i, want := range in {
		var got Stats
		var err error
		got, rest, err = DecodeStats(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes", len(rest))
	}
	// Truncations error out, never panic.
	for n := 0; n < len(enc); n++ {
		rest := enc[:n]
		for len(rest) > 0 {
			var err error
			if _, rest, err = DecodeStats(rest); err != nil {
				break
			}
		}
	}
}
