package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"gccache/internal/trace"
)

// generatorGolden holds hashTrace values of the Zipf-drawing generators:
// FromSpec's zipf and blockruns forms at two seeds, and StorageServer
// with the shootout's configuration (internal/experiments/compare.go)
// at its full and quick block sizes. Any change to what a generator
// draws, or in which order, fails it.
var generatorGolden = map[string]uint64{
	"blockruns:blocks=4096,B=16,run=2,zipf=1.2,len=50000/seed=1": 0x8483221923b475b2,
	"blockruns:blocks=4096,B=16,run=2,zipf=1.2,len=50000/seed=2": 0xe75d4161b2ed0eb2,
	"blockruns:blocks=512,B=64,run=8,zipf=1.1,len=50000/seed=1":  0xca3d896e123708a7,
	"blockruns:blocks=512,B=64,run=8,zipf=1.1,len=50000/seed=2":  0x3c14eba14f24969f,
	"storageserver/B=16/seed=7":                                  0x42dbea13c3a3ad46,
	"storageserver/B=64/seed=7":                                  0x7c7f9e34f81475a,
	"zipf:len=50000/seed=1":                                      0x3aab039ff5200b9a,
	"zipf:len=50000/seed=2":                                      0xa58326772f92c2ec,
	"zipf:n=100000,s=1,len=50000/seed=1":                         0x812f02908d05ee21,
	"zipf:n=100000,s=1,len=50000/seed=2":                         0x9e98e8f502a7af9b,
	"zipf:n=1000000,s=2.5,len=50000/seed=1":                      0x50c493e1d1e57aa,
	"zipf:n=1000000,s=2.5,len=50000/seed=2":                      0xf9b1fee8ca8ae26a,
	"zipf:n=2048,s=1.3,len=50000/seed=1":                         0x6eae08aacf3bcc1,
	"zipf:n=2048,s=1.3,len=50000/seed=2":                         0x785adedcf08dd3e1,
}

// hashTrace is the FNV-64a hash of tr's items, each as eight
// little-endian bytes.
func hashTrace(tr trace.Trace) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, it := range tr {
		binary.LittleEndian.PutUint64(buf[:], uint64(it))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGeneratorGolden pins the generators' request sequences to
// recorded hashes.
func TestGeneratorGolden(t *testing.T) {
	got := map[string]uint64{}
	for _, spec := range []string{
		"zipf:len=50000",
		"zipf:n=100000,s=1,len=50000",
		"zipf:n=2048,s=1.3,len=50000",
		"zipf:n=1000000,s=2.5,len=50000",
		"blockruns:blocks=512,B=64,run=8,zipf=1.1,len=50000",
		"blockruns:blocks=4096,B=16,run=2,zipf=1.2,len=50000",
	} {
		for _, seed := range []int64{1, 2} {
			tr, err := FromSpec(spec, seed)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			got[fmt.Sprintf("%s/seed=%d", spec, seed)] = hashTrace(tr)
		}
	}
	for _, B := range []int{64, 16} {
		tr, err := StorageServer{
			BlockSize: B, Streams: 4, RandomUniverse: 16384, MetaBlocks: 64,
			RandomFrac: 0.3, MetaFrac: 0.2, Length: 120000, Seed: 7,
		}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("storageserver/B=%d/seed=7", B)] = hashTrace(tr)
	}
	if len(got) != len(generatorGolden) {
		t.Errorf("%d generated traces, but %d golden hashes", len(got), len(generatorGolden))
	}
	for name, h := range got {
		if want, ok := generatorGolden[name]; !ok {
			t.Errorf("%s: no golden hash (got %#x)", name, h)
		} else if h != want {
			t.Errorf("%s: trace hash %#x, golden %#x", name, h, want)
		}
	}
}
