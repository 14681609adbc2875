// Command gcadversary drives one of the paper's lower-bound
// constructions against a chosen live policy and reports the measured
// competitive-ratio lower bound next to the analytic claim.
//
// Usage:
//
//	gcadversary -construction thm2 -policy item-lru -k 1024 -h 129 -B 64
//	gcadversary -construction locality -policy iblp -k 32 -B 4 -p 2
package main

import (
	"flag"
	"fmt"

	"gccache"
	"gccache/internal/adversary"
	"gccache/internal/cli"
	"gccache/internal/core"
)

func main() {
	var (
		construction = flag.String("construction", "thm2", "one of: st, thm2, thm3, thm4, locality")
		policyName   = flag.String("policy", "item-lru", cli.PolicyHelp)
		k            = flag.Int("k", 1024, "online cache size")
		h            = flag.Int("h", 129, "offline comparison size")
		B            = flag.Int("B", 64, "block size")
		phases       = flag.Int("phases", 25, "construction phases (st: accesses/1000)")
		p            = flag.Float64("p", 2, "locality exponent for -construction locality")
		seed         = flag.Int64("seed", 1, "seed for randomized policies")
	)
	cli.SetUsage("gcadversary", "drive a lower-bound adversary construction against a live policy")
	flag.Parse()

	geo := cli.Geometry("gcadversary", *B, *k)
	build, err := core.ByName(*policyName, geo, *seed)
	if err != nil {
		fatal(err)
	}
	c := build(*k)

	cfg := adversary.Config{OptSize: *h, Phases: *phases}
	switch *construction {
	case "st":
		res, err := adversary.SleatorTarjan(c, adversary.SleatorTarjanConfig{
			OptSize: *h, Accesses: *phases * 1000, Spacing: *B,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
		fmt.Printf("analytic Sleator–Tarjan bound: %.3f\n",
			gccache.SleatorTarjan(float64(*k), float64(*h)))
	case "thm2":
		report(adversary.ItemCache(c, geo, cfg))
	case "thm3":
		report(adversary.BlockCache(c, geo, cfg))
	case "thm4":
		report(adversary.General(c, geo, cfg))
	case "locality":
		res, err := adversary.Locality(c, geo, adversary.LocalityConfig{P: *p, Phases: *phases})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: fault rate %.5f vs Theorem 8 bound %.5f (phase length %d, %d accesses)\n",
			res.Policy, res.FaultRate, res.Bound, res.PhaseLength, res.Accesses)
	default:
		fatal(fmt.Errorf("unknown construction %q", *construction))
	}
}

func report(res adversary.Result, err error) {
	if err != nil {
		fatal(err)
	}
	fmt.Println(res)
}

func fatal(err error) { cli.Fatal("gcadversary", err) }
