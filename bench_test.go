// Package repro holds the top-level benchmark harness: one testing.B family
// per table/figure of the paper's evaluation (see DESIGN.md §3 for the
// experiment index). The cmd/experiments binary prints the paper-style
// tables; these benches expose the same computations to `go test -bench`
// with -benchmem for the Fig. 6(h) memory columns.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/biclique"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/prank"
	"repro/internal/rwr"
	"repro/internal/simrank"
	"repro/internal/sparse"
)

// benchGraph builds the scaled dataset once per benchmark binary run.
func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	p, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	// Bench sizes are trimmed relative to cmd/experiments so the full
	// -bench=. sweep stays in CI budget.
	p.ScaledN /= 2
	return p.Build()
}

// ---- FIG1: the walk-through table ----------------------------------------

func BenchmarkFig1Table(b *testing.B) {
	g := dataset.Figure1()
	for i := 0; i < b.N; i++ {
		simrank.MatrixForm(g, simrank.Options{C: 0.8, K: 25})
		prank.MatrixForm(g, prank.Options{C: 0.8, K: 25})
		core.Geometric(g, core.Options{C: 0.8, K: 25})
		rwr.AllPairs(g, rwr.Options{C: 0.8, K: 25})
	}
}

// ---- FIG6a: semantic effectiveness ----------------------------------------

func benchmarkFig6aMeasure(b *testing.B, run func(g *graph.Graph)) {
	corpus := dataset.TopicCitation(dataset.TopicCitationOptions{N: 400, AvgOut: 12, Seed: 601})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(corpus.G)
	}
}

func BenchmarkFig6a_eSRstar(b *testing.B) {
	benchmarkFig6aMeasure(b, func(g *graph.Graph) { core.ExponentialMemo(g, core.Options{C: 0.6, K: 5}) })
}

func BenchmarkFig6a_gSRstar(b *testing.B) {
	benchmarkFig6aMeasure(b, func(g *graph.Graph) { core.GeometricMemo(g, core.Options{C: 0.6, K: 5}) })
}

func BenchmarkFig6a_SimRank(b *testing.B) {
	benchmarkFig6aMeasure(b, func(g *graph.Graph) { simrank.PSum(g, simrank.Options{C: 0.6, K: 5}) })
}

func BenchmarkFig6a_PRank(b *testing.B) {
	benchmarkFig6aMeasure(b, func(g *graph.Graph) { prank.AllPairs(g, prank.Options{C: 0.6, K: 5}) })
}

func BenchmarkFig6a_RWR(b *testing.B) {
	benchmarkFig6aMeasure(b, func(g *graph.Graph) { rwr.AllPairs(g, rwr.Options{C: 0.6, K: 5}) })
}

// ---- FIG6b/6c: pair analytics ---------------------------------------------

func BenchmarkFig6b_TopPairs(b *testing.B) {
	corpus := dataset.TopicCitation(dataset.TopicCitationOptions{N: 400, AvgOut: 12, Seed: 602})
	s := core.GeometricMemo(corpus.G, core.Options{C: 0.6, K: 5})
	n := corpus.G.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.TopPairs(n, s.At, n)
	}
}

func BenchmarkFig6c_DecileSimilarity(b *testing.B) {
	corpus := dataset.TopicCitation(dataset.TopicCitationOptions{N: 400, AvgOut: 12, Seed: 603})
	s := core.GeometricMemo(corpus.G, core.Options{C: 0.6, K: 5})
	n := corpus.G.N()
	role := make([]int, n)
	for i := range role {
		role[i] = corpus.G.InDeg(i)
	}
	dec := eval.Deciles(role)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.DecileSimilarity(n, s.At, dec, true)
		eval.DecileSimilarity(n, s.At, dec, false)
	}
}

// ---- FIG6d: zero-similarity analysis --------------------------------------

func BenchmarkFig6d_PathAnalysis(b *testing.B) {
	g := benchGraph(b, "CitHepTh-s")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths.Analyze(g, 5).Stats()
	}
}

// ---- FIG6e: the algorithm suite, one bench per competitor per dataset -----

func benchmarkAlgo(b *testing.B, ds string, run func(g *graph.Graph)) {
	g := benchGraph(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(g)
	}
}

func kGeo() int { return core.Options{C: 0.6, Eps: 0.001}.IterationsGeometric() }
func kExp() int { return core.Options{C: 0.6, Eps: 0.001}.IterationsExponential() }

func BenchmarkFig6e(b *testing.B) {
	for _, ds := range []string{"D05-s", "D08-s", "D11-s"} {
		b.Run(ds+"/memo-eSR*", func(b *testing.B) {
			benchmarkAlgo(b, ds, func(g *graph.Graph) { core.ExponentialMemo(g, core.Options{C: 0.6, K: kExp()}) })
		})
		b.Run(ds+"/memo-gSR*", func(b *testing.B) {
			benchmarkAlgo(b, ds, func(g *graph.Graph) { core.GeometricMemo(g, core.Options{C: 0.6, K: kGeo()}) })
		})
		b.Run(ds+"/iter-gSR*", func(b *testing.B) {
			benchmarkAlgo(b, ds, func(g *graph.Graph) { core.Geometric(g, core.Options{C: 0.6, K: kGeo()}) })
		})
		b.Run(ds+"/psum-SR", func(b *testing.B) {
			benchmarkAlgo(b, ds, func(g *graph.Graph) { simrank.PSum(g, simrank.Options{C: 0.6, K: kGeo()}) })
		})
	}
	// mtx-SR only on the smallest snapshot, as the paper ran it only where
	// the SVD cost allows.
	b.Run("D05-s/mtx-SR", func(b *testing.B) {
		benchmarkAlgo(b, "D05-s", func(g *graph.Graph) {
			if _, err := simrank.MtxSR(g, simrank.MtxOptions{C: 0.6, Rank: 15}); err != nil {
				b.Fatal(err)
			}
		})
	})
}

func BenchmarkFig6e_KSweep(b *testing.B) {
	for _, k := range []int{5, 10, 20} {
		k := k
		b.Run(fmt.Sprintf("WebGoogle-s/iter-gSR*/K=%d", k), func(b *testing.B) {
			benchmarkAlgo(b, "WebGoogle-s", func(g *graph.Graph) { core.Geometric(g, core.Options{C: 0.6, K: k}) })
		})
		b.Run(fmt.Sprintf("WebGoogle-s/psum-SR/K=%d", k), func(b *testing.B) {
			benchmarkAlgo(b, "WebGoogle-s", func(g *graph.Graph) { simrank.PSum(g, simrank.Options{C: 0.6, K: k}) })
		})
	}
}

// ---- FIG6f: the two memo phases -------------------------------------------

func BenchmarkFig6f_CompressBigraph(b *testing.B) {
	g := benchGraph(b, "WebGoogle-s")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		biclique.Compress(g, biclique.Options{})
	}
}

func BenchmarkFig6f_ShareSums(b *testing.B) {
	g := benchGraph(b, "WebGoogle-s")
	comp := biclique.Compress(g, biclique.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GeometricWithCompressed(g, comp, core.Options{C: 0.6, K: kGeo()})
	}
}

// ---- FIG6g: density sweep --------------------------------------------------

func BenchmarkFig6g(b *testing.B) {
	for _, d := range []int{10, 20, 40} {
		g := dataset.RMATDefault(9, d, int64(700+d))
		comp := biclique.Compress(g, biclique.Options{})
		b.Run(fmt.Sprintf("d=%d/memo-gSR*", d), func(b *testing.B) {
			b.ReportMetric(comp.CompressionRatio(), "compression%")
			for i := 0; i < b.N; i++ {
				core.GeometricWithCompressed(g, comp, core.Options{C: 0.6, K: kGeo()})
			}
		})
		b.Run(fmt.Sprintf("d=%d/psum-SR", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simrank.PSum(g, simrank.Options{C: 0.6, K: kGeo()})
			}
		})
	}
}

// ---- FIG6h: memory (read the -benchmem B/op column) ------------------------

func BenchmarkFig6h(b *testing.B) {
	algos := []struct {
		name string
		run  func(g *graph.Graph)
	}{
		{"memo-eSR*", func(g *graph.Graph) { core.ExponentialMemo(g, core.Options{C: 0.6, K: kExp()}) }},
		{"memo-gSR*", func(g *graph.Graph) { core.GeometricMemo(g, core.Options{C: 0.6, K: kGeo()}) }},
		{"iter-gSR*", func(g *graph.Graph) { core.Geometric(g, core.Options{C: 0.6, K: kGeo()}) }},
		{"psum-SR", func(g *graph.Graph) { simrank.PSum(g, simrank.Options{C: 0.6, K: kGeo()}) }},
		{"mtx-SR", func(g *graph.Graph) {
			if _, err := simrank.MtxSR(g, simrank.MtxOptions{C: 0.6, Rank: 15}); err != nil {
				panic(err)
			}
		}},
	}
	for _, a := range algos {
		b.Run("D05-s/"+a.name, func(b *testing.B) {
			benchmarkAlgo(b, "D05-s", a.run)
		})
	}
}

// ---- ABL: design-choice ablations ------------------------------------------

func BenchmarkAblation_LengthWeights(b *testing.B) {
	g := dataset.TopicCitation(dataset.TopicCitationOptions{N: 300, AvgOut: 8, Seed: 604}).G
	for _, w := range []core.LengthWeight{
		core.GeometricWeight(0.6), core.ExponentialWeight(0.6), core.HarmonicWeight(0.6),
	} {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SeriesWeighted(g, w, 8)
			}
		})
	}
}

func BenchmarkAblation_Miner(b *testing.B) {
	g := dataset.ErdosRenyi(400, 4000, 605)
	for _, mode := range []struct {
		name string
		opt  biclique.Options
	}{
		{"identical-only", biclique.Options{DisablePairMining: true}},
		{"full", biclique.Options{}},
	} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				biclique.Compress(g, mode.opt)
			}
		})
	}
}

// ---- Single-source query path (the O(Km) regime of Exp-1) ------------------

func BenchmarkSingleSource(b *testing.B) {
	g := benchGraph(b, "CitHepTh-s")
	ctx := context.Background()
	b.Run("geometric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SingleSourceGeometricFromTransition(ctx, sparse.BackwardTransition(g), i%g.N(), core.Options{C: 0.6, K: 5})
		}
	})
	b.Run("exponential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SingleSourceExponentialFromTransition(ctx, sparse.BackwardTransition(g), i%g.N(), core.Options{C: 0.6, K: 5})
		}
	})
	b.Run("rwr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rwr.SingleSourceFromTransition(ctx, sparse.ForwardTransition(g), i%g.N(), rwr.Options{C: 0.6, K: 5})
		}
	})
}
