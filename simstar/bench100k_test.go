package simstar_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/simstar"
)

// engineBenchGraph builds the 100k-node benchmark graph: every node links to
// deg mostly-local neighbours (the community structure of social and citation
// graphs), and the node ids are then scrambled by a fixed random permutation,
// so the locality is real but invisible in the arrival order — the regime a
// crawl ordered by URL hash or insertion time produces.
func engineBenchGraph(n, deg int) *simstar.Graph {
	rng := rand.New(rand.NewSource(271828))
	shuf := rng.Perm(n)
	edges := make([][2]int, 0, n*deg)
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			v := u + 1 + rng.Intn(64)
			if v >= n {
				v -= n
			}
			edges = append(edges, [2]int{shuf[u], shuf[v]})
		}
	}
	return graph.FromEdges(n, edges)
}

// benchMiner keeps NewEngine's eager biclique mining out of the benchmark
// setup cost; the single-source paths under test never touch the compression.
var benchMiner = simstar.WithMiner(simstar.MinerOptions{
	MinSources: 64, MinTargets: 64, DisablePairMining: true,
})

// BenchmarkEngineSingleSource100k is the headline serving-path number: exact
// single-source SimRank* through the engine on a 100k-node degree-3 graph,
// result cache disabled so every iteration pays the kernel. The sub-benchmarks
// run SingleSource for SimRank* and RWR, and the pooled zero-allocation
// SingleSourceInto loop bare and with a live Observer (the instrumentation
// overhead). Every "-into" variant must report 0 allocs/op:
//
//	go test ./simstar -run '^$' -bench 'EngineSingleSource100k/exact-into' -benchmem -benchtime 50x
func BenchmarkEngineSingleSource100k(b *testing.B) {
	g := engineBenchGraph(100_000, 3)
	ctx := context.Background()
	engine := func(opts ...simstar.Option) *simstar.Engine {
		return simstar.NewEngine(g, append([]simstar.Option{simstar.WithCacheSize(-1), benchMiner}, opts...)...)
	}
	// One query before the timer builds the pooled workspace, as in into
	// below; otherwise every b.Run round's fresh engine times that cold
	// build (~7 MB) divided by b.N, and B/op, allocs/op and ns/op all move
	// with -benchtime.
	single := func(b *testing.B, eng *simstar.Engine, measure string) {
		b.Helper()
		if _, err := eng.SingleSource(ctx, measure, 0); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SingleSource(ctx, measure, (i*7919)%g.N()); err != nil {
				b.Fatal(err)
			}
		}
	}
	// The zero-allocation serving loop: pooled kernel workspaces plus a
	// caller-owned result buffer. One query before the timer fills the pools,
	// so allocs/op reads the steady state at any -benchtime.
	into := func(b *testing.B, eng *simstar.Engine) {
		b.Helper()
		buf := make([]float64, g.N())
		if _, err := eng.SingleSourceInto(ctx, simstar.MeasureGeometric, 0, buf); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.SingleSourceInto(ctx, simstar.MeasureGeometric, (i*7919)%g.N(), buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("exact", func(b *testing.B) {
		single(b, engine(), simstar.MeasureGeometric)
	})
	b.Run("exact-into", func(b *testing.B) {
		into(b, engine())
	})
	b.Run("exact-into-observed", func(b *testing.B) {
		into(b, engine(simstar.WithObserver(simstar.NewObserver(nil))))
	})
	b.Run("exact-rwr", func(b *testing.B) {
		single(b, engine(), simstar.MeasureRWR)
	})
}
