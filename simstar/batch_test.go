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

// The batch path must be a pure performance construct: for every registered
// measure, MultiSource answers bitwise what per-query SingleSource answers.
// The cache is disabled so the comparison pits every batch answer against
// a genuine per-query recomputation, not against its own cached output.
func TestMultiSourceMatchesSingleSource(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(4), simstar.WithCacheSize(-1))
	var queries []simstar.Query
	for _, name := range simstar.Names() {
		for q := 0; q < g.N(); q += 2 {
			queries = append(queries, simstar.Query{Measure: name, Node: q})
		}
	}
	results := eng.MultiSource(ctx, queries)
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		q := queries[i]
		if r.Err != nil {
			t.Fatalf("query %d (%s, node %d): %v", i, q.Measure, q.Node, r.Err)
		}
		want, err := eng.SingleSource(ctx, q.Measure, q.Node)
		if err != nil {
			t.Fatal(err)
		}
		if j := firstBitDiff(r.Scores, want); j >= 0 {
			t.Fatalf("query %d (%s, node %d): scores differ bitwise at %d", i, q.Measure, q.Node, j)
		}
	}
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

// BatchTopK must agree with Engine.TopK query by query, including the
// exclusion list and the K boundary cases.
func TestBatchTopKMatchesTopK(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(6))
	queries := []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 0, K: 3},
		{Measure: simstar.MeasureRWR, Node: 1, K: 2, Exclude: []int{0}},
		{Measure: simstar.MeasureExponential, Node: 2, K: 0},        // boundary: empty
		{Measure: simstar.MeasureGeometric, Node: 3, K: 10 * g.N()}, // boundary: everything
		{Measure: simstar.MeasureRWR, Node: 4, K: -3},               // boundary: empty
	}
	results := eng.BatchTopK(ctx, queries)
	for i, r := range results {
		q := queries[i]
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		want, err := eng.TopK(ctx, q.Measure, q.Node, q.K, q.Exclude...)
		if err != nil {
			t.Fatal(err)
		}
		if !rankedSliceEqual(r.Top, want) {
			t.Fatalf("query %d: Top = %v, want %v", i, r.Top, want)
		}
	}
	if len(results[2].Top) != 0 || len(results[4].Top) != 0 {
		t.Fatalf("K=0 and K=-3 queries returned %d and %d entries, want 0", len(results[2].Top), len(results[4].Top))
	}
	if len(results[3].Top) != g.N()-1 {
		t.Fatalf("oversized-K query returned %d entries, want all %d candidates", len(results[3].Top), g.N()-1)
	}
}

// The one-query BatchTopK, the call every served top-k read makes (streamed
// or not), must match TopK bitwise — order, scores, tie-breaks — and carry
// SingleSourceCertified's certificate, for every registered measure, exact
// and tolerance-certified, with either read running first so both the cold
// (kernel, cache fill) and the warm (cache-probe) batch are compared.
func TestBatchTopKMatchesTopKAllMeasures(t *testing.T) {
	ctx := context.Background()
	tg := tieGraph(t)
	base := []simstar.Option{simstar.WithC(0.6), simstar.WithK(4), simstar.WithRank(6)}
	for _, v := range []struct {
		name string
		opts []simstar.Option
	}{
		{"exact", nil},
		{"tolerance", []simstar.Option{simstar.WithTolerance(1e-3)}},
	} {
		t.Run(v.name, func(t *testing.T) {
			eng := simstar.NewEngine(tg, append(append([]simstar.Option{}, base...), v.opts...)...)
			for _, name := range simstar.Names() {
				t.Run(name, func(t *testing.T) {
					for qi, q := range []int{0, 5, 13} {
						for ki, k := range []int{1, 5, tg.N() + 10} {
							topK := func() []simstar.Ranked {
								top, err := eng.TopK(ctx, name, q, k, 2)
								if err != nil {
									t.Fatal(err)
								}
								return top
							}
							var want []simstar.Ranked
							if qi%2 == 0 {
								want = topK()
							}
							res := eng.BatchTopK(ctx, []simstar.Query{{Measure: name, Node: q, K: k, Exclude: []int{2}}})[0]
							if res.Err != nil {
								t.Fatal(res.Err)
							}
							if want == nil {
								want = topK()
							}
							if !rankedSliceEqual(res.Top, want) {
								t.Fatalf("q=%d k=%d: one-query BatchTopK %v != TopK %v", q, k, res.Top, want)
							}
							// Only the very first read of a key misses.
							if wantCached := qi%2 == 0 || ki > 0; res.Cached != wantCached {
								t.Fatalf("q=%d k=%d: Cached = %v, want %v", q, k, res.Cached, wantCached)
							}
							_, wantErr, err := eng.SingleSourceCertified(ctx, name, q)
							if err != nil {
								t.Fatal(err)
							}
							if res.MaxError != wantErr {
								t.Fatalf("q=%d k=%d: MaxError %g, SingleSourceCertified %g", q, k, res.MaxError, wantErr)
							}
						}
					}
				})
			}
		})
	}
}

// Per-query Opts must behave exactly like Engine.With for that query alone.
func TestMultiSourcePerQueryOverrides(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(8))
	queries := []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 1},
		{Measure: simstar.MeasureGeometric, Node: 1, Opts: []simstar.Option{simstar.WithK(2)}},
	}
	results := eng.MultiSource(ctx, queries)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	wantDefault, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantOverride, err := eng.With(simstar.WithK(2)).SingleSource(ctx, simstar.MeasureGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for j := range wantDefault {
		if results[0].Scores[j] != wantDefault[j] {
			t.Fatalf("default query: scores[%d] = %g, want %g", j, results[0].Scores[j], wantDefault[j])
		}
		if results[1].Scores[j] != wantOverride[j] {
			t.Fatalf("override query: scores[%d] = %g, want %g", j, results[1].Scores[j], wantOverride[j])
		}
		if wantDefault[j] != wantOverride[j] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("K=8 and K=2 gave identical vectors; the override was not applied")
	}
}

// One bad query must fail alone, not take the batch down with it, in
// either batch call.
func TestMultiSourcePerQueryErrors(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithK(4))
	queries := []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 0, K: 3},
		{Measure: "no-such-measure", Node: 0, K: 3},
		{Measure: simstar.MeasureGeometric, Node: g.N() + 5, K: 3},
		{Measure: simstar.MeasureRWR, Node: 2, K: 3},
	}
	for _, results := range [][]simstar.Result{
		eng.MultiSource(context.Background(), queries),
		eng.BatchTopK(context.Background(), queries),
	} {
		if results[0].Err != nil || results[3].Err != nil {
			t.Fatalf("good queries failed: %v, %v", results[0].Err, results[3].Err)
		}
		if results[1].Err == nil {
			t.Fatal("unknown measure must error")
		}
		if results[2].Err == nil {
			t.Fatal("out-of-range node must error")
		}
		if results[1].Scores != nil || results[2].Scores != nil || results[1].Top != nil || results[2].Top != nil {
			t.Fatal("failed queries must not carry answers")
		}
	}
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
