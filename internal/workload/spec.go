package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gccache/internal/trace"
)

// FromSpec builds a trace from a compact textual description, used by the
// command-line tools:
//
//	sequential:len=1000
//	cyclic:n=256,len=10000
//	stride:n=64,s=8,len=10000
//	zipf:n=4096,s=1.2,len=100000
//	blockruns:blocks=512,B=64,run=16,zipf=1.1,len=100000
//	hotcold:hot=16,B=64,frac=0.8,cold=4096,len=100000
//	matrix:r=64,c=64,colmajor=1,passes=4
//
// Unknown keys are rejected; omitted keys take the defaults shown by
// SpecHelp.
func FromSpec(spec string, seed int64) (trace.Trace, error) {
	name, params, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	p := specParams{m: params}
	// MaxSpecLength caps generated traces so a malformed or hostile spec
	// cannot exhaust memory.
	const MaxSpecLength = 1 << 26
	if raw, ok := params["len"]; ok {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return nil, fmt.Errorf("workload: len=%q is not an integer", raw)
		}
		if v < 0 || v > MaxSpecLength {
			return nil, fmt.Errorf("workload: len=%d outside [0, %d]", v, MaxSpecLength)
		}
	}
	var tr trace.Trace
	switch name {
	case "sequential":
		tr = Sequential(0, p.geti("len", 1000))
	case "cyclic":
		tr = CyclicScan(p.geti("n", 256), p.geti("len", 10000))
	case "stride":
		tr = Stride(p.geti("n", 64), p.geti("s", 8), p.geti("len", 10000))
	case "zipf":
		s := p.getf("s", 1.2)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("workload: zipf skew s=%v is not finite", s)
		}
		tr = Zipf(p.geti("n", 4096), s, p.geti("len", 100000), seed)
	case "blockruns":
		cfg := BlockRunsConfig{
			NumBlocks:     p.geti("blocks", 512),
			BlockSize:     p.geti("B", 64),
			MeanRunLength: p.getf("run", 8),
			ZipfS:         p.getf("zipf", 0),
			Length:        p.geti("len", 100000),
			Seed:          seed,
		}
		tr, err = BlockRuns(cfg)
	case "hotcold":
		hc := HotCold{
			HotItems:     p.geti("hot", 16),
			BlockSize:    p.geti("B", 64),
			HotFraction:  p.getf("frac", 0.8),
			ColdUniverse: p.geti("cold", 4096),
			Length:       p.geti("len", 100000),
			Seed:         seed,
		}
		tr, err = hc.Generate()
	case "matrix":
		mr, mc, passes := p.geti("r", 64), p.geti("c", 64), p.geti("passes", 2)
		if mr < 0 || mc < 0 || passes < 0 ||
			(mr > 0 && mc > 0 && passes > 0 && int64(mr)*int64(mc)*int64(passes) > MaxSpecLength) {
			return nil, fmt.Errorf("workload: matrix spec %q too large", spec)
		}
		tr = MatrixTraversal(mr, mc, p.geti("colmajor", 0) == 0, passes)
	default:
		return nil, fmt.Errorf("workload: unknown spec %q (see SpecHelp)", name)
	}
	if err != nil {
		return nil, err
	}
	if p.err != nil {
		return nil, p.err
	}
	if len(p.unused()) > 0 {
		return nil, fmt.Errorf("workload: unknown keys %v in spec %q", p.unused(), spec)
	}
	if len(tr) > MaxSpecLength {
		return nil, fmt.Errorf("workload: spec %q generated %d requests (cap %d)",
			spec, len(tr), MaxSpecLength)
	}
	return tr, nil
}

// SpecHelp describes the FromSpec grammar for --help output.
const SpecHelp = `workload specs (key=value, comma separated):
  sequential:len=N
  cyclic:n=N,len=N
  stride:n=N,s=S,len=N
  zipf:n=N,s=SKEW,len=N
  blockruns:blocks=N,B=N,run=MEAN,zipf=SKEW,len=N
  hotcold:hot=N,B=N,frac=F,cold=N,len=N
  matrix:r=N,c=N,colmajor=0|1,passes=N`

func parseSpec(spec string) (name string, params map[string]string, err error) {
	name, rest, _ := strings.Cut(spec, ":")
	name = strings.TrimSpace(strings.ToLower(name))
	if name == "" {
		return "", nil, fmt.Errorf("workload: empty spec")
	}
	params = make(map[string]string)
	if strings.TrimSpace(rest) == "" {
		return name, params, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		k = strings.TrimSpace(k)
		if !ok || k == "" {
			return "", nil, fmt.Errorf("workload: bad parameter %q in %q", kv, spec)
		}
		params[k] = strings.TrimSpace(v)
	}
	return name, params, nil
}

// specParams reads typed values out of the parsed key/value map, tracking
// the first error and which keys were consumed.
type specParams struct {
	m    map[string]string
	used map[string]bool
	err  error
}

func (p *specParams) geti(key string, def int) int {
	raw, ok := p.take(key)
	if !ok {
		return def
	}
	v, err := strconv.Atoi(raw)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("workload: %s=%q is not an integer", key, raw)
	}
	return v
}

func (p *specParams) getf(key string, def float64) float64 {
	raw, ok := p.take(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("workload: %s=%q is not a number", key, raw)
	}
	return v
}

func (p *specParams) take(key string) (string, bool) {
	if p.used == nil {
		p.used = make(map[string]bool)
	}
	raw, ok := p.m[key]
	if ok {
		p.used[key] = true
	}
	return raw, ok
}

func (p *specParams) unused() []string {
	var out []string
	for k := range p.m {
		if !p.used[k] {
			out = append(out, k)
		}
	}
	return out
}
