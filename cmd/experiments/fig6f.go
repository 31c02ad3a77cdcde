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
	register("fig6f", "amortised time of the two memo phases", runFig6f)
}

// runFig6f reproduces Fig. 6(f): for memo-eSR* and memo-gSR* at ε=.001, the
// split between the one-off "Compress Bigraph" preprocessing (the
// engine's explicit mining call, Engine.Compression, which reports its own
// time and runs before either timer starts) and the per-run "Share Sums"
// iterations. The paper's claims: compression is one or more orders of
// magnitude cheaper than iterating, and occupies a larger *fraction* of
// memo-eSR*'s total because its iteration phase is shorter.
func runFig6f(cfg config) {
	bench.Section(os.Stdout, "FIG6f", "amortised phase time at ε=.001 (C=0.6)")
	const c, eps = 0.6, 0.001
	kGeo := simstar.IterationsGeometric(simstar.WithC(c), simstar.WithEps(eps))
	kExp := simstar.IterationsExponential(simstar.WithC(c), simstar.WithEps(eps))
	ctx := context.Background()

	tab := bench.NewTable("dataset", "algorithm", "compress", "share sums", "compress %")
	for _, name := range []string{"WebGoogle-s", "CitPatent-s"} {
		p, _ := dataset.ByName(name)
		if cfg.quick {
			p.ScaledN /= 2
		}
		g := p.Build()
		eng := simstar.NewEngine(g, simstar.WithC(c))
		dCompress := eng.Compression().MiningTime

		dShareG := bench.Timed(func() {
			if _, err := eng.With(simstar.WithK(kGeo)).AllPairs(ctx, simstar.MeasureGeometricMemo); err != nil {
				panic(err)
			}
		})
		dShareE := bench.Timed(func() {
			if _, err := eng.With(simstar.WithK(kExp)).AllPairs(ctx, simstar.MeasureExponentialMemo); err != nil {
				panic(err)
			}
		})
		pctG := 100 * dCompress.Seconds() / (dCompress + dShareG).Seconds()
		pctE := 100 * dCompress.Seconds() / (dCompress + dShareE).Seconds()
		tab.Add(name, fmt.Sprintf("memo-gSR* (K=%d)", kGeo), dCompress, dShareG, fmt.Sprintf("%.1f%%", pctG))
		tab.Add(name, fmt.Sprintf("memo-eSR* (K=%d)", kExp), dCompress, dShareE, fmt.Sprintf("%.1f%%", pctE))
	}
	tab.Render(os.Stdout)
	fmt.Println("\npaper shape: compress ≪ share-sums (preprocessing is cheap); the")
	fmt.Println("compress share is larger for memo-eSR* (13% vs 4% on Web-Google).")
}
