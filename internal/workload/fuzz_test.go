package workload

import "testing"

// FuzzFromSpec asserts the spec parser never panics and that generated
// traces respect their length parameter when parsing succeeds.
func FuzzFromSpec(f *testing.F) {
	f.Add("cyclic:n=10,len=100")
	f.Add("blockruns:blocks=4,B=4,run=2,len=50")
	f.Add("zipf:::")
	f.Add("matrix:r=0,c=0")
	f.Add("hotcold:frac=1e308")
	f.Add("zipf:n=10,s=NaN,len=10")
	f.Add("zipf:n=10,s=Inf,len=10")
	f.Add("blockruns:blocks=4,B=4,run=2,zipf=Inf,len=50")
	f.Fuzz(func(t *testing.T, spec string) {
		tr, err := FromSpec(spec, 1)
		if err != nil {
			return
		}
		const cap = 1 << 24
		if len(tr) > cap {
			t.Fatalf("spec %q generated %d requests", spec, len(tr))
		}
	})
}
