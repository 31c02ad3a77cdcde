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
	register("fig6e", "time efficiency of the five algorithms", runFig6e)
}

// timedAlgo names one competitor: a registry measure at a fixed iteration
// count K (derived from the accuracy ε where the experiment calls for it).
// All competitors run through one simstar.Engine per dataset, whose
// compression each table mines (Engine.Compression, for its m̃ column)
// before timing anything, so the memo variants see a pre-mined
// compression: edge concentration is one-off preprocessing (amortised
// across runs and K values, exactly as the paper treats it); its cost is
// reported separately in Fig. 6(f).
type timedAlgo struct {
	name string
	// kFor maps the shared accuracy target to this algorithm's iteration
	// count (the exponential form needs far fewer iterations for equal ε —
	// that is the paper's Exp-2 headline).
	kFor    func(eps float64) int
	measure string
}

func competitorSuite() []timedAlgo {
	const c = 0.6
	geoK := func(eps float64) int {
		return simstar.IterationsGeometric(simstar.WithC(c), simstar.WithEps(eps))
	}
	expK := func(eps float64) int {
		return simstar.IterationsExponential(simstar.WithC(c), simstar.WithEps(eps))
	}
	return []timedAlgo{
		{"memo-eSR*", expK, simstar.MeasureExponentialMemo},
		{"memo-gSR*", geoK, simstar.MeasureGeometricMemo},
		{"iter-gSR*", geoK, simstar.MeasureGeometric},
		{"psum-SR", geoK, simstar.MeasureSimRank},
	}
}

// timeAlgo times one competitor's all-pairs run off the engine's caches.
func timeAlgo(eng *simstar.Engine, a timedAlgo, k int) interface{} {
	return bench.Timed(func() {
		if _, err := eng.With(simstar.WithK(k)).AllPairs(context.Background(), a.measure); err != nil {
			panic(err)
		}
	})
}

func runFig6e(cfg config) {
	bench.Section(os.Stdout, "FIG6e", "elapsed time (ε=.001 on DBLP snapshots; K sweeps on webgraph/patents)")
	const eps = 0.001

	// Panel 1: D05/D08/D11 at fixed accuracy, including mtx-SR.
	fmt.Println("DBLP snapshots at ε=.001 (C=0.6):")
	tab := bench.NewTable("dataset", "n", "m", "m̃", "memo-eSR*", "memo-gSR*", "iter-gSR*", "psum-SR", "mtx-SR")
	for _, name := range []string{"D05-s", "D08-s", "D11-s"} {
		p, _ := dataset.ByName(name)
		if cfg.quick {
			p.ScaledN /= 2
		}
		g := p.Build()
		eng := simstar.NewEngine(g, simstar.WithC(0.6))
		row := []interface{}{name, g.N(), g.M(), eng.Compression().CompressedEdges}
		for _, a := range competitorSuite() {
			row = append(row, timeAlgo(eng, a, a.kFor(eps)))
		}
		// mtx-SR: rank-15 SVD solver. The paper reports 1457s / 1672s on
		// D08/D11 — cost-inhibitive; we run it everywhere at this scale but
		// it is reliably the slowest.
		dm := bench.Timed(func() {
			if _, err := eng.With(simstar.WithRank(15)).AllPairs(context.Background(), simstar.MeasureMtxSimRank); err != nil {
				panic(err)
			}
		})
		row = append(row, dm)
		tab.Add(row...)
	}
	tab.Render(os.Stdout)

	// Panels 2–3: K sweeps.
	sweeps := []struct {
		preset string
		ks     []int
	}{
		{"WebGoogle-s", []int{5, 10, 15, 20}},
		{"CitPatent-s", []int{3, 6, 9, 12}},
	}
	for _, sw := range sweeps {
		p, _ := dataset.ByName(sw.preset)
		if cfg.quick {
			p.ScaledN /= 2
		}
		g := p.Build()
		eng := simstar.NewEngine(g, simstar.WithC(0.6))
		fmt.Printf("\n%s (n=%d m=%d d=%.1f, m̃=%d), time per #iterations K:\n",
			sw.preset, g.N(), g.M(), g.Density(), eng.Compression().CompressedEdges)
		header := []string{"algorithm"}
		for _, k := range sw.ks {
			header = append(header, fmt.Sprintf("K=%d", k))
		}
		tab := bench.NewTable(header...)
		for _, a := range competitorSuite() {
			row := []interface{}{a.name}
			for _, k := range sw.ks {
				row = append(row, timeAlgo(eng, a, k))
			}
			tab.Add(row...)
		}
		tab.Render(os.Stdout)
	}

	fmt.Println("\npaper shape: memo-eSR* fastest (fewest iterations at equal ε),")
	fmt.Println("memo-gSR* > iter-gSR* > psum-SR (one vs two summations per iteration,")
	fmt.Println("plus fine-grained sharing); mtx-SR slowest on the snapshot panel.")
}
