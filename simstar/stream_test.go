package simstar_test

import (
	"context"
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

// Streams take TopK's read path: a cold stream fills the result cache, and
// the next stream, TopK or one-query BatchTopK of the same key is a hit
// with the identical ranking.
func TestTopKStreamCacheInterplay(t *testing.T) {
	g := streamGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(4))
	wantStats := func(step string, hits uint64) {
		t.Helper()
		if cs := eng.CacheStats(); cs.Size != 1 || cs.Misses != 1 || cs.Hits != hits {
			t.Fatalf("after %s: %+v, want size 1, 1 miss, %d hits", step, cs, hits)
		}
	}
	s, err := eng.TopKStream(ctx, simstar.MeasureGeometric, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cached() {
		t.Fatal("cold stream claims a cache hit")
	}
	wantStats("cold stream", 0)
	want := s.Collect()

	s2, err := eng.TopKStream(ctx, simstar.MeasureGeometric, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Cached() {
		t.Fatal("stream after a stream of the same query should be a cache hit")
	}
	if got := s2.Collect(); !rankedSliceEqual(got, want) {
		t.Fatalf("cached stream %v != cold stream %v", got, want)
	}
	wantStats("second stream", 1)

	top, err := eng.TopK(ctx, simstar.MeasureGeometric, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !rankedSliceEqual(top, want) {
		t.Fatalf("TopK %v != cold stream %v", top, want)
	}
	wantStats("TopK", 2)

	res := eng.BatchTopK(ctx, []simstar.Query{{Measure: simstar.MeasureGeometric, Node: 2, K: 5}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if !res[0].Cached {
		t.Fatal("BatchTopK after a stream of the same query should be a cache hit")
	}
	if !rankedSliceEqual(res[0].Top, want) {
		t.Fatalf("BatchTopK %v != cold stream %v", res[0].Top, want)
	}
	wantStats("BatchTopK", 3)
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
