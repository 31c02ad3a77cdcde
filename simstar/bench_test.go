package simstar_test

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/simstar"
)

// The engine's reason to exist: SingleSource served from the cached CSR
// transition matrix versus the standalone measure path, which rebuilds the
// transition matrix from the graph on every call. Compare:
//
//	go test ./simstar -bench 'SingleSource' -benchmem
//
// The gap is the per-request preprocessing a serving system saves.
func benchmarkGraph(b *testing.B) *simstar.Graph {
	b.Helper()
	return dataset.RMATDefault(12, 8, 1234) // 4096 nodes, heavy-tailed
}

func BenchmarkSingleSourceEngineCached(b *testing.B) {
	g := benchmarkGraph(b)
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(5))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, i%g.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleSourceRebuildPerCall(b *testing.B) {
	g := benchmarkGraph(b)
	m, err := simstar.Lookup(simstar.MeasureGeometric, simstar.WithC(0.6), simstar.WithK(5))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SingleSource(ctx, g, i%g.N()); err != nil {
			b.Fatal(err)
		}
	}
}

// Same comparison for RWR, whose forward transition matrix the engine also
// caches.
func BenchmarkSingleSourceRWREngineCached(b *testing.B) {
	g := benchmarkGraph(b)
	eng := simstar.NewEngine(g, simstar.WithK(5))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SingleSource(ctx, simstar.MeasureRWR, i%g.N()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleSourceRWRRebuildPerCall(b *testing.B) {
	g := benchmarkGraph(b)
	m, err := simstar.Lookup(simstar.MeasureRWR, simstar.WithK(5))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SingleSource(ctx, g, i%g.N()); err != nil {
			b.Fatal(err)
		}
	}
}

// The batch layer's reason to exist: the same queries through MultiSource
// versus a serial SingleSource loop. Both run with the result cache
// disabled and the same single-source kernels, so the gap is the worker
// fan-out across cores — not cache hits; on one core the two tie. Compare:
//
//	go test ./simstar -bench 'Batch' -benchmem
const batchBenchQueries = 64

func benchBatch(b *testing.B) (*simstar.Engine, []simstar.Query) {
	b.Helper()
	g := benchmarkGraph(b)
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(5), simstar.WithCacheSize(-1))
	queries := make([]simstar.Query, batchBenchQueries)
	for i := range queries {
		queries[i] = simstar.Query{Measure: simstar.MeasureGeometric, Node: (i * 37) % g.N()}
	}
	return eng, queries
}

func BenchmarkBatchMultiSource(b *testing.B) {
	eng, queries := benchBatch(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range eng.MultiSource(ctx, queries) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkBatchSerialSingleSource(b *testing.B) {
	eng, queries := benchBatch(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := eng.SingleSource(ctx, q.Measure, q.Node); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineTopK times the top-k read path on the 4096-node graph,
// one sub-benchmark per cache outcome and engine call:
//
//   - miss: TopK cycling every node through the 256-entry cache, so each
//     read runs the kernel and fills the cache with the vector it keeps;
//   - hit: TopK over a few warmed nodes, the read topk_hot serves, ranked
//     straight from the shared cache entry;
//   - batch1-hit: the same hits through a one-query BatchTopK, the engine
//     call every served top-k read makes, streamed or not.
func BenchmarkEngineTopK(b *testing.B) {
	g := benchmarkGraph(b)
	ctx := context.Background()
	const k, warm = 10, 8
	engine := func(b *testing.B) *simstar.Engine {
		eng := simstar.NewEngine(g, simstar.WithK(5))
		for q := 0; q < warm; q++ {
			if _, err := eng.TopK(ctx, simstar.MeasureGeometric, q, k); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		return eng
	}
	b.Run("miss", func(b *testing.B) {
		eng := engine(b)
		for i := 0; i < b.N; i++ {
			if _, err := eng.TopK(ctx, simstar.MeasureGeometric, warm+i%(g.N()-warm), k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		eng := engine(b)
		for i := 0; i < b.N; i++ {
			if _, err := eng.TopK(ctx, simstar.MeasureGeometric, i%warm, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch1-hit", func(b *testing.B) {
		eng := engine(b)
		for i := 0; i < b.N; i++ {
			res := eng.BatchTopK(ctx, []simstar.Query{{Measure: simstar.MeasureGeometric, Node: i % warm, K: k}})
			if res[0].Err != nil {
				b.Fatal(res[0].Err)
			}
		}
	})
}
