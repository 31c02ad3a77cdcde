package simstar_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/simstar"
)

// firstBitDiff returns the first index at which got and want differ bitwise
// (a length mismatch differs at the shorter length), or -1 when they are
// identical.
func firstBitDiff(got, want []float64) int {
	for i := range want {
		if i >= len(got) || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	if len(got) != len(want) {
		return len(want)
	}
	return -1
}

// A batch probes the result cache once per distinct key — the one probe a
// lone SingleSource makes — and its duplicates probe nothing, so the cache
// counters and the observer's read the same for a query whether it comes
// alone or batched.
func TestBatchProbesCacheOncePerKey(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	o := simstar.NewObserver(nil)
	eng := simstar.NewEngine(g, simstar.WithK(4), simstar.WithObserver(o))
	check := func(step string, hits, misses uint64) {
		t.Helper()
		s := eng.CacheStats()
		if s.Hits != hits || s.Misses != misses {
			t.Fatalf("%s: cache hits=%d misses=%d, want %d and %d", step, s.Hits, s.Misses, hits, misses)
		}
		snap := o.Registry().Snapshot()
		if snap["simstar_cache_hits_total"] != float64(hits) || snap["simstar_cache_misses_total"] != float64(misses) {
			t.Fatalf("%s: observer hits=%g misses=%g, want %d and %d", step,
				snap["simstar_cache_hits_total"], snap["simstar_cache_misses_total"], hits, misses)
		}
	}
	batch := []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 1, K: 3},
		{Measure: simstar.MeasureGeometric, Node: 1, K: 3},
		{Measure: simstar.MeasureRWR, Node: 2, K: 3},
	}
	for round, wantCached := range []bool{false, true} {
		for i, r := range eng.BatchTopK(ctx, batch) {
			if r.Err != nil {
				t.Fatalf("round %d query %d: %v", round, i, r.Err)
			}
			if r.Cached != wantCached {
				t.Fatalf("round %d query %d: Cached = %t, want %t", round, i, r.Cached, wantCached)
			}
		}
		if round == 0 {
			check("first batch", 0, 2)
		} else {
			check("repeated batch", 2, 2)
		}
	}
	if r := eng.MultiSource(ctx, []simstar.Query{{Measure: simstar.MeasureExponential, Node: 3}})[0]; r.Err != nil {
		t.Fatal(r.Err)
	}
	check("one-query miss", 2, 3)
}

// tieGraph is a deterministic 24-node digraph with hubs, chains and plenty
// of equal-score candidates, so tie-breaking is actually exercised.
func tieGraph(t testing.TB) *simstar.Graph {
	t.Helper()
	const n = 24
	var edges [][2]int
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
		if i%2 == 0 {
			edges = append(edges, [2]int{i, 0}) // hub: many identical in-profiles
		}
		if i%3 == 0 {
			edges = append(edges, [2]int{i, (i + n/2) % n})
		}
	}
	return simstar.GraphFromEdges(n, edges)
}

func rankedSliceEqual(a, b []simstar.Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A cancelled context reaches every query: the running ones abort in their
// kernels, the undispatched ones are answered with ctx's error directly.
func TestMultiSourceCancellation(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithK(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	queries := make([]simstar.Query, 32)
	for i := range queries {
		queries[i] = simstar.Query{Measure: simstar.MeasureGeometric, Node: i % g.N()}
	}
	for _, results := range [][]simstar.Result{
		eng.MultiSource(ctx, queries),
		eng.BatchTopK(ctx, queries),
	} {
		if len(results) != len(queries) {
			t.Fatalf("got %d results for %d queries", len(results), len(queries))
		}
		for i, r := range results {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("result %d: err = %v, want context.Canceled", i, r.Err)
			}
		}
	}
}

// countingMeasure counts SingleSource invocations — the probe for the
// duplicates-compute-once contract.
type countingMeasure struct {
	constantMeasure
	name  string
	calls *int64
}

func (m countingMeasure) Name() string { return m.name }

func (m countingMeasure) SingleSource(ctx context.Context, g *simstar.Graph, q int) ([]float64, error) {
	atomic.AddInt64(m.calls, 1)
	return m.constantMeasure.SingleSource(ctx, g, q)
}

// Duplicate queries inside one batch must compute once, even for a measure
// outside the engine's fast paths and with the cache disabled.
func TestMultiSourceDeduplicatesFanOut(t *testing.T) {
	const name = "test-counting"
	var calls int64
	simstar.RegisterForTest(t, name, func(opts ...simstar.Option) simstar.Measure {
		return countingMeasure{name: name, calls: &calls}
	})
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithCacheSize(-1))
	queries := []simstar.Query{
		{Measure: name, Node: 1},
		{Measure: name, Node: 1},
		{Measure: name, Node: 1},
		{Measure: name, Node: 2},
	}
	results := eng.MultiSource(context.Background(), queries)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if len(r.Scores) != g.N() {
			t.Fatalf("query %d: %d scores", i, len(r.Scores))
		}
	}
	if got := atomic.LoadInt64(&calls); got != 2 {
		t.Fatalf("measure computed %d times for 2 distinct queries, want 2", got)
	}
	// The shared results must not alias: mutating one leaves the others.
	results[0].Scores[0] = -99
	if results[1].Scores[0] == -99 {
		t.Fatal("duplicate results share one backing slice")
	}
}

// The fan-out must respect WithWorkers(1) and still cover the whole batch.
func TestMultiSourceSingleWorker(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithK(4), simstar.WithWorkers(1))
	queries := make([]simstar.Query, g.N())
	for i := range queries {
		queries[i] = simstar.Query{Measure: simstar.MeasureRWR, Node: i}
	}
	for i, r := range eng.MultiSource(context.Background(), queries) {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if len(r.Scores) != g.N() {
			t.Fatalf("query %d: %d scores, want %d", i, len(r.Scores), g.N())
		}
	}
}
