// Command gctrace generates synthetic traces to binary files and
// inspects existing ones (summary statistics plus the measured f/g
// working-set profiles of the extended locality model).
//
// Usage:
//
//	gctrace -workload 'zipf:n=4096,s=1.2,len=100000' -out reqs.gct
//	gctrace -in reqs.gct -B 64
package main

import (
	"flag"
	"fmt"
	"os"

	"gccache/internal/cli"
	"gccache/internal/locality"
	"gccache/internal/model"
	"gccache/internal/obs"
	"gccache/internal/render"
	"gccache/internal/trace"
)

func main() {
	var (
		in     = cli.NewInput("gctrace", "", "in", false)
		out    = flag.String("out", "", "write the generated trace to this file")
		B      = flag.Int("B", 64, "block size for statistics")
		format = flag.String("format", "binary", "trace file format of -in and -out: binary or text (one item ID per line)")
		mrc    = flag.Bool("mrc", false, "also print exact LRU miss-ratio curves (item and block granularity)")
		reuse  = flag.Bool("reuse", false, "also print reuse-distance histograms of the raw trace (item and block granularity)")
	)
	cli.SetUsage("gctrace", "generate synthetic traces to binary files and inspect existing ones")
	flag.Parse()

	if *format != "binary" && *format != "text" {
		fatal(fmt.Errorf("unknown -format %q (want binary or text)", *format))
	}
	geo := cli.Geometry("gctrace", *B)
	in.Text = *format == "text"
	// The reuse profiles' tables grow with the largest item ID, so with
	// -reuse the trace is held to the bound Replay applies.
	tr := in.Trace(*reuse)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		write := tr.Write
		if in.Text {
			write = tr.WriteText
		}
		if err := write(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d requests to %s (%s)\n", len(tr), *out, *format)
	}

	s := trace.Summarize(tr, geo)
	fmt.Printf("requests=%d distinct-items=%d distinct-blocks=%d items/block=%.2f mean-run=%.2f\n",
		s.Requests, s.DistinctItems, s.DistinctBlocks, s.MeanItemsPerBlock, s.BlockRunLengthMean)

	lengths := locality.GeometricLengths(min(len(tr), 1<<16))
	f := locality.MeasureItems(tr, lengths)
	g := locality.MeasureBlocks(tr, geo, lengths)
	t := &render.Table{
		Title:   "working-set profiles (extended locality model, §2/§7)",
		Headers: []string{"window n", "f(n) items", "g(n) blocks", "f/g spatial ratio"},
	}
	ns, fs := f.Points()
	for idx, n := range ns {
		gv := g.Eval(float64(n))
		ratio := 0.0
		if gv > 0 {
			ratio = fs[idx] / gv
		}
		t.AddRow(n, fs[idx], gv, ratio)
	}
	if err := t.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("aggregate spatial locality f/g: %.3f (1 = none, B = maximal)\n",
		locality.SpatialLocalityRatio(f, g))

	if *reuse {
		// Profile the raw trace's reuse structure directly — no cache
		// involved — at both granularities. Item-level distances explain
		// temporal locality; block-level distances explain what a block
		// cache can exploit.
		items := obs.NewReuseDist()
		blocks := obs.NewReuseDist()
		for _, it := range tr {
			items.Note(it)
			blocks.Note(model.Item(geo.BlockOf(it)))
		}
		fmt.Println("\n== reuse distances, item granularity ==")
		if _, err := items.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println("\n== reuse distances, block granularity ==")
		if _, err := blocks.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *mrc {
		sizes := locality.GeometricLengths(1 << 20)
		itemCurve := locality.MissRatioCurve(tr, sizes)
		frames := make([]int, len(sizes))
		for i, s := range sizes {
			frames[i] = (s + *B - 1) / *B
		}
		blockCurve := locality.BlockMissRatioCurve(tr, geo, frames)
		mt := &render.Table{
			Title:   "LRU miss-ratio curves (Mattson one-pass; block column uses k/B frames)",
			Headers: []string{"capacity k (items)", "item-LRU misses", "block-LRU misses (k/B frames)"},
		}
		for i, s := range sizes {
			mt.AddRow(s, itemCurve[i], blockCurve[i])
		}
		if err := mt.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) { cli.Fatal("gctrace", err) }
