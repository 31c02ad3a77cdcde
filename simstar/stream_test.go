package simstar_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/simstar"
)

// streamGraph is a deterministic ~24-node digraph with hubs, chains and
// plenty of equal-score candidates, so tie-breaking is actually exercised.
func streamGraph(t testing.TB) *simstar.Graph {
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

// The streaming contract: for every registered measure, under exact and
// tolerance-certified configurations, TopKStream yields entries
// bitwise-identical — order, scores, tie-breaks — to materialized
// Engine.TopK at the same parameters.
func TestTopKStreamConformanceAllMeasures(t *testing.T) {
	g := streamGraph(t)
	ctx := context.Background()
	base := []simstar.Option{simstar.WithC(0.6), simstar.WithK(4), simstar.WithRank(6)}
	variants := []struct {
		name string
		opts []simstar.Option
	}{
		{"exact", nil},
		{"tolerance", []simstar.Option{simstar.WithTolerance(1e-3)}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			eng := simstar.NewEngine(g, append(append([]simstar.Option{}, base...), v.opts...)...)
			for _, name := range simstar.Names() {
				name := name
				t.Run(name, func(t *testing.T) {
					for qi, q := range []int{0, 5, 13} {
						for _, k := range []int{1, 5, g.N() + 10} {
							// Alternate which path runs first, so both the
							// cold stream (kernel path) and the warm stream
							// (cache-probe path) are compared.
							var want []simstar.Ranked
							var err error
							if qi%2 == 0 {
								want, err = eng.TopK(ctx, name, q, k, 2)
								if err != nil {
									t.Fatal(err)
								}
							}
							s, err := eng.TopKStream(ctx, name, q, k, 2)
							if err != nil {
								t.Fatal(err)
							}
							if want == nil {
								want, err = eng.TopK(ctx, name, q, k, 2)
								if err != nil {
									t.Fatal(err)
								}
							}
							got := s.Collect()
							if !rankedSliceEqual(got, want) {
								t.Fatalf("q=%d k=%d: stream %v != materialized %v", q, k, got, want)
							}
							if s.Len() != len(want) {
								t.Fatalf("q=%d k=%d: Len = %d, want %d", q, k, s.Len(), len(want))
							}
						}
					}
				})
			}
		})
	}
}

// Next must hand out exactly the Collect sequence, then report drained.
func TestTopKStreamNextDrains(t *testing.T) {
	g := streamGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(4))
	want, err := eng.TopK(ctx, simstar.MeasureGeometric, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.TopKStream(ctx, simstar.MeasureGeometric, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		r, ok := s.Next()
		if !ok {
			t.Fatalf("stream drained at %d, want %d entries", i, len(want))
		}
		if r != w {
			t.Fatalf("Next()[%d] = %+v, want %+v", i, r, w)
		}
	}
	if r, ok := s.Next(); ok {
		t.Fatalf("stream overran with %+v", r)
	}
	if got := s.Collect(); len(got) != 0 {
		t.Fatalf("Collect after drain = %v, want empty", got)
	}
}

// Explicit tie-break check on a crafted vector: equal scores must stream in
// ascending node id, identically through TopK and TopKInto.
func TestTopKIntoTieBreaks(t *testing.T) {
	scores := []float64{0.25, 0.5, 0.25, 0.5, 0.25, 0.125}
	want := []simstar.Ranked{
		{Node: 1, Score: 0.5}, {Node: 3, Score: 0.5},
		{Node: 0, Score: 0.25}, {Node: 2, Score: 0.25},
	}
	got := simstar.TopKInto(scores, 4, make([]simstar.Ranked, 0, 4), 4)
	if !rankedSliceEqual(got, want) {
		t.Fatalf("TopKInto = %v, want %v", got, want)
	}
	if full := simstar.TopK(scores, 4, 4); !rankedSliceEqual(full, got) {
		t.Fatalf("TopK %v != TopKInto %v", full, got)
	}
}

// Streams probe the result cache but never populate it: a cold stream
// leaves the cache empty, and a SingleSource of the same query turns the
// next stream into a hit.
func TestTopKStreamCacheInterplay(t *testing.T) {
	g := streamGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(4))
	s, err := eng.TopKStream(ctx, simstar.MeasureGeometric, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cached() {
		t.Fatal("cold stream claims a cache hit")
	}
	if cs := eng.CacheStats(); cs.Size != 0 {
		t.Fatalf("stream populated the cache: %+v", cs)
	}
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 2); err != nil {
		t.Fatal(err)
	}
	s2, err := eng.TopKStream(ctx, simstar.MeasureGeometric, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Cached() {
		t.Fatal("stream after SingleSource of the same query should be a cache hit")
	}
	if !rankedSliceEqual(s.Collect(), s2.Collect()) {
		t.Fatal("cached and kernel streams disagree")
	}
}

// A tolerance-configured stream must carry the certificate of the
// underlying approximate result.
func TestTopKStreamCarriesMaxError(t *testing.T) {
	g := streamGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(4), simstar.WithTolerance(1e-3))
	_, wantErr, err := eng.SingleSourceCertified(ctx, simstar.MeasureGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.TopKStream(ctx, simstar.MeasureGeometric, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxError() != wantErr {
		t.Fatalf("stream MaxError = %g, want %g", s.MaxError(), wantErr)
	}
	if s.MaxError() > 1e-3 {
		t.Fatalf("certificate %g exceeds the configured tolerance", s.MaxError())
	}
	exact := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(4))
	se, err := exact.TopKStream(ctx, simstar.MeasureGeometric, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if se.MaxError() != 0 {
		t.Fatalf("exact stream MaxError = %g, want 0", se.MaxError())
	}
}

func TestTopKStreamBoundariesAndErrors(t *testing.T) {
	g := streamGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(4))
	for _, k := range []int{0, -3} {
		s, err := eng.TopKStream(ctx, simstar.MeasureGeometric, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		if s.Len() != 0 {
			t.Fatalf("k=%d: Len = %d, want 0", k, s.Len())
		}
	}
	if _, err := eng.TopKStream(ctx, simstar.MeasureGeometric, -1, 5); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := eng.TopKStream(ctx, "no-such-measure", 0, 5); err == nil {
		t.Fatal("unknown measure accepted")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.TopKStream(cctx, simstar.MeasureGeometric, 0, 5); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// Result.Stream adapts batch answers to the iterator form, preserving
// entries and metadata.
func TestBatchResultStream(t *testing.T) {
	g := streamGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(4))
	queries := []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 1, K: 4},
		{Measure: simstar.MeasureRWR, Node: 2, K: 3, Exclude: []int{5}},
		{Measure: "no-such-measure", Node: 0, K: 2},
	}
	results := eng.BatchTopK(ctx, queries)
	for i, r := range results {
		s := r.Stream()
		if r.Err != nil {
			if s.Len() != 0 {
				t.Fatalf("query %d: failed result streams %d entries", i, s.Len())
			}
			continue
		}
		if !rankedSliceEqual(s.Collect(), r.Top) {
			t.Fatalf("query %d: stream != Top", i)
		}
		if s.Cached() != r.Cached || s.MaxError() != r.MaxError {
			t.Fatalf("query %d: stream metadata diverges from Result", i)
		}
	}
}

// The o(n) allocation claim, asserted: a warmed cache-disabled engine must
// stream top-k with the same small constant number of allocations at two
// very different node counts — the per-query O(n) vector is pooled, not
// allocated.
func TestTopKStreamAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector (sync.Pool)")
	}
	ctx := context.Background()
	allocsAt := func(n int, measure string) float64 {
		rng := rand.New(rand.NewSource(9))
		edges := make([][2]int, 0, 4*n)
		for i := 0; i < 4*n; i++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		eng := simstar.NewEngine(simstar.GraphFromEdges(n, edges),
			simstar.WithC(0.6), simstar.WithK(4), simstar.WithCacheSize(-1))
		// Warm the pools.
		for w := 0; w < 3; w++ {
			if _, err := eng.TopKStream(ctx, measure, w, 10); err != nil {
				t.Fatal(err)
			}
		}
		q := 0
		return testing.AllocsPerRun(30, func() {
			s, err := eng.TopKStream(ctx, measure, q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if s.Len() == 0 {
				t.Fatal("empty stream")
			}
			q = (q + 1) % 16
		})
	}
	for _, measure := range []string{simstar.MeasureGeometric, simstar.MeasureRWR} {
		small := allocsAt(512, measure)
		large := allocsAt(8192, measure)
		// The stream itself and its k-entry storage: a small constant,
		// never a function of n.
		if small > 4 || large > 4 {
			t.Fatalf("%s: allocs/op small=%v large=%v, want <= 4", measure, small, large)
		}
		if large > small {
			t.Fatalf("%s: allocs grew with n (%v -> %v)", measure, small, large)
		}
	}
}
