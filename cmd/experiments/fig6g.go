package main

import (
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/simstar"
)

func init() {
	register("fig6g", "effect of graph density on CPU time and compression", runFig6g)
}

// runFig6g reproduces Fig. 6(g): fixed n, density d = m/n swept over
// {10, 20, 30, 40} on synthetic data; elapsed time of the four iterative
// algorithms at ε=.001 plus the edge-concentration compression ratio.
// Denser graphs overlap more in-neighbour sets, so the memo variants'
// advantage and the compression ratio both grow with d — the paper's
// "speedups are sensitive to graph density" claim.
func runFig6g(cfg config) {
	bench.Section(os.Stdout, "FIG6g", "density sweep at ε=.001 (C=0.6), synthetic R-MAT graphs")
	scale := 10 // n = 1024, GTgraph-style heavy-tailed sampler
	if cfg.quick {
		scale = 8
	}
	const eps = 0.001
	densities := []int{10, 20, 30, 40}

	header := []string{"algorithm"}
	for _, d := range densities {
		header = append(header, fmt.Sprintf("d=%d", d))
	}
	tab := bench.NewTable(header...)
	rows := map[string][]interface{}{}
	order := []string{}
	for _, a := range competitorSuite() {
		rows[a.name] = []interface{}{a.name}
		order = append(order, a.name)
	}
	ratios := []interface{}{"compression ratio"}

	for _, d := range densities {
		g := dataset.RMATDefault(scale, d, int64(9000+d))
		eng := simstar.NewEngine(g, simstar.WithC(0.6))
		cs := eng.Compression() // mines before the memo timers start
		ratios = append(ratios, fmt.Sprintf("%.1f%% (m̃/n=%.1f)",
			cs.Ratio, float64(cs.CompressedEdges)/float64(g.N())))
		for _, a := range competitorSuite() {
			rows[a.name] = append(rows[a.name], timeAlgo(eng, a, a.kFor(eps)))
		}
	}
	for _, name := range order {
		tab.Add(rows[name]...)
	}
	tab.Add(ratios...)
	tab.Render(os.Stdout)
	fmt.Println("\npaper shape: memo-eSR* beats memo-gSR* beats iter-gSR* beats psum-SR,")
	fmt.Println("with the gap and the compression ratio growing as density rises")
	fmt.Println("(paper: 52.7% compression at d=40).")
}
