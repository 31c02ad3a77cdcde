package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/simstar"
)

func init() {
	register("fig6h", "memory space of each algorithm", runFig6h)
}

// runFig6h reproduces Fig. 6(h): live-heap growth of each algorithm on the
// DBLP snapshots, measured over the engine-served all-pairs runs so the
// shared caches (built once, before measurement) are excluded. The paper's
// claims: the memo variants stay within the same order of magnitude as
// iter-gSR*/psum-SR (the fine-grained partial sums are freed each
// iteration), while mtx-SR explodes because the SVD destroys sparsity (it
// is therefore run only on the smallest snapshot, as the paper ran it only
// on DBLP).
func runFig6h(cfg config) {
	bench.Section(os.Stdout, "FIG6h", "heap usage per algorithm (DBLP snapshots, ε=.001)")
	const eps = 0.001
	ctx := context.Background()
	tab := bench.NewTable("dataset", "n", "memo-eSR*", "memo-gSR*", "iter-gSR*", "psum-SR", "mtx-SR")
	for _, name := range []string{"D05-s", "D08-s", "D11-s"} {
		p, _ := dataset.ByName(name)
		if cfg.quick {
			p.ScaledN /= 2
		}
		g := p.Build()
		eng := simstar.NewEngine(g, simstar.WithC(0.6))
		eng.Compression() // a shared cache too: mined before measurement
		row := []interface{}{name, g.N()}
		for _, a := range competitorSuite() {
			a := a
			k := a.kFor(eps)
			row = append(row, heapOf(func() {
				if _, err := eng.With(simstar.WithK(k)).AllPairs(ctx, a.measure); err != nil {
					panic(err)
				}
			}))
		}
		if name == "D05-s" {
			row = append(row, heapOf(func() {
				if _, err := eng.With(simstar.WithRank(15)).AllPairs(ctx, simstar.MeasureMtxSimRank); err != nil {
					panic(err)
				}
			}))
		} else {
			row = append(row, "— (SVD cost-inhibitive)")
		}
		tab.Add(row...)
	}
	tab.Render(os.Stdout)
	fmt.Println("\npaper shape: all iterative algorithms within the same order of")
	fmt.Println("magnitude (memo variants ≈20–30% above iter/psum); mtx-SR at least an")
	fmt.Println("order of magnitude above on the dataset where it runs.")
}

func heapOf(fn func()) string {
	_, used := bench.PeakHeap(fn)
	return bench.MB(used)
}
