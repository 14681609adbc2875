package cli

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"gccache/internal/cachesim"
	"gccache/internal/core"
	"gccache/internal/model"
	"gccache/internal/scenario"
	"gccache/internal/trace"
	"gccache/internal/workload"
)

// PolicyHelp is the -policy flag's help text: every name core.ByName
// accepts, in the order gcsim's -policy all runs them.
var PolicyHelp = "policy: " + strings.Join(core.PolicyNames(), ", ") + " (iblp-even is iblp)"

// Geometry returns the fixed geometry of blocks of B items once the
// command's sizes hold: it exits through Fatal when B, or a cache size
// in ks, is below 1.
func Geometry(name string, B int, ks ...int) *model.Fixed {
	for _, k := range ks {
		if k < 1 {
			Fatalf(name, "cache size %d < 1", k)
		}
	}
	if B < 1 {
		Fatalf(name, "block size %d < 1", B)
	}
	return model.NewFixed(B)
}

// Input is a command's request source, named by the flags NewInput
// registers; flag.Parse fills the fields.
type Input struct {
	Workload string // -workload spec
	File     string // trace file: -trace, or gctrace's -in
	Scenario string // -scenario program; "" when the command has none
	Seed     int64  // -seed
	Text     bool   // read File as text, one item ID per line

	name, fileFlag string
}

// NewInput registers the named command's input flags on the default
// flag set: -workload with default spec ("" for none), the trace-file
// flag fileFlag ("trace", or gctrace's "in"), -seed and, when
// scenarios is set, -scenario. Call it before flag.Parse.
func NewInput(name, spec, fileFlag string, scenarios bool) *Input {
	in := &Input{name: name, fileFlag: fileFlag}
	flag.StringVar(&in.Workload, "workload", spec, workload.SpecHelp)
	flag.StringVar(&in.File, fileFlag, "", "read the requests from this trace file instead of generating -workload")
	seedHelp := "seed of -workload and of seeded policies"
	if scenarios {
		flag.StringVar(&in.Scenario, "scenario", "", scenario.FlagHelp)
		seedHelp += "; a -scenario program's own seed statement applies unless -seed is given"
	}
	flag.Int64Var(&in.Seed, "seed", 1, seedHelp)
	return in
}

// Trace returns the requests the flags name: the trace file read whole,
// else the -workload spec generated with -seed. With bounded set it
// refuses a trace whose largest item is at or past
// cachesim.MaxUniverse, the bound Replay applies, for commands whose
// tables grow with the largest item ID. Every failure exits through
// Fatal.
func (in *Input) Trace(bounded bool) trace.Trace {
	var tr trace.Trace
	var err error
	switch {
	case in.File != "":
		tr, err = in.readFile()
	case in.Workload != "":
		tr, err = workload.FromSpec(in.Workload, in.Seed)
	default:
		err = fmt.Errorf("need -workload or -%s", in.fileFlag)
	}
	if err == nil && bounded {
		err = cachesim.CheckUniverse(tr.MaxItem())
	}
	if err != nil {
		Fatal(in.name, err)
	}
	return tr
}

func (in *Input) readFile() (trace.Trace, error) {
	f, err := os.Open(in.File)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if in.Text {
		return trace.ReadText(f)
	}
	return trace.Read(f)
}

// Program loads the -scenario program and the seed it compiles with
// (see LoadScenario). With seeds > 0 it also replays the program at
// that many consecutive seeds from the resolved one and refuses it when
// an item reaches cachesim.MaxUniverse, for commands that feed caches
// outside Replay's own check. It refuses -scenario beside a trace file.
// Every failure exits through Fatal.
func (in *Input) Program(seeds int) (*scenario.Program, *scenario.Info, int64) {
	if in.File != "" {
		Fatalf(in.name, "-scenario and -%s are mutually exclusive", in.fileFlag)
	}
	prog, info, seed, err := LoadScenario(in.Scenario, in.Seed)
	var largest model.Item
	for i := 0; err == nil && i < seeds; i++ {
		var m model.Item
		m, err = scenario.MaxItem(prog, seed+int64(i))
		largest = max(largest, m)
	}
	if err == nil {
		err = cachesim.CheckUniverse(largest)
	}
	if err != nil {
		Fatal(in.name, err)
	}
	return prog, info, seed
}

// LoadScenario loads the scenario program at path and the seed it
// compiles with: -seed when given on the command line, else the
// program's own seed statement, else flagSeed, -seed's default.
func LoadScenario(path string, flagSeed int64) (*scenario.Program, *scenario.Info, int64, error) {
	prog, info, err := scenario.Load(path)
	if err != nil {
		return nil, nil, 0, err
	}
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "seed" })
	return prog, info, scenario.ResolveSeed(info, flagSeed, set), nil
}
