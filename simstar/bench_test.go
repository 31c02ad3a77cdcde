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

// TopK on top of a cached single-source query: the full serving path.
func BenchmarkEngineTopK(b *testing.B) {
	g := benchmarkGraph(b)
	eng := simstar.NewEngine(g, simstar.WithK(5))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.TopK(ctx, simstar.MeasureGeometric, i%g.N(), 10); err != nil {
			b.Fatal(err)
		}
	}
}
