package scenario

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"
)

// corpusTraceGolden holds traceHash values of every scenarios/*.gcs
// file compiled at seeds 1–3 (the seed argument, not the file's own
// seed statement). Any change to what a generator draws, or in which
// order, fails it.
var corpusTraceGolden = map[string]uint64{
	"adversarial-iblp.gcs/seed=1": 0x19be499c679e21b0,
	"adversarial-iblp.gcs/seed=2": 0xf977665f0eae7427,
	"adversarial-iblp.gcs/seed=3": 0x4d9a22b00b5d56af,
	"diurnal.gcs/seed=1":          0x1b71c5738342f4dd,
	"diurnal.gcs/seed=2":          0x322372d6c3efe46c,
	"diurnal.gcs/seed=3":          0xc2da7b49162e3a15,
	"drift.gcs/seed=1":            0xa31bb3a140d7aa2a,
	"drift.gcs/seed=2":            0x31e1a119d6179155,
	"drift.gcs/seed=3":            0x5cc464d97ab825d4,
	"hotcold.gcs/seed=1":          0x4a4db3e9e08c9c45,
	"hotcold.gcs/seed=2":          0x1fc1748432c78b3b,
	"hotcold.gcs/seed=3":          0x1fa70392c3260ae1,
	"phase-change.gcs/seed=1":     0x30fab7e7f0547ab,
	"phase-change.gcs/seed=2":     0xf252b823bded9318,
	"phase-change.gcs/seed=3":     0x80e93f04cf98f2a3,
	"ramp.gcs/seed=1":             0x6ed5995585a7f26b,
	"ramp.gcs/seed=2":             0xd50b3b1c8751259e,
	"ramp.gcs/seed=3":             0xd4d3dc59ec5c88c8,
	"scan-storm.gcs/seed=1":       0x180ddc95b740c2a,
	"scan-storm.gcs/seed=2":       0x9516fa8dda622c1d,
	"scan-storm.gcs/seed=3":       0xea485575babeda0d,
	"scatter.gcs/seed=1":          0xcffbad6ff9a63e3a,
	"scatter.gcs/seed=2":          0x455d82f782957d45,
	"scatter.gcs/seed=3":          0xb8e3e98f8fa20ff,
	"split-flip.gcs/seed=1":       0x9e8d8112c791f85b,
	"split-flip.gcs/seed=2":       0xeed44b6377ea1d88,
	"split-flip.gcs/seed=3":       0x38662e839151f8be,
	"storage-server.gcs/seed=1":   0x8b6e3f4fb2f40b88,
	"storage-server.gcs/seed=2":   0xf184cf891092bd27,
	"storage-server.gcs/seed=3":   0x68c415e4d09adf42,
}

// traceHash is the FNV-64a hash of the stream's items, each as eight
// little-endian bytes.
func traceHash(s *Stream) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for s.Next() {
		binary.LittleEndian.PutUint64(buf[:], uint64(s.Item()))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestCorpusTraceGolden pins the request sequence every corpus
// scenario generates at seeds 1–3 to recorded hashes.
func TestCorpusTraceGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*"+Ext))
	if err != nil {
		t.Fatal(err)
	}
	if len(files)*3 != len(corpusTraceGolden) {
		t.Errorf("%d corpus files at 3 seeds, but %d golden hashes", len(files), len(corpusTraceGolden))
	}
	for _, path := range files {
		prog, _, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed=%d", filepath.Base(path), seed)
			s, err := Compile(prog, seed)
			if err != nil {
				t.Fatal(err)
			}
			h := traceHash(s)
			if want, ok := corpusTraceGolden[name]; !ok {
				t.Errorf("%s: no golden hash (got %#x)", name, h)
			} else if h != want {
				t.Errorf("%s: trace hash %#x, golden %#x", name, h, want)
			}
		}
	}
}
