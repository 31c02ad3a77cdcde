package simstar_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/simstar"
)

// Engine queries must return exactly what the standalone measures return —
// the cache changes the cost, never the answer.
func TestEngineMatchesMeasures(t *testing.T) {
	g := toyGraph(t)
	opts := []simstar.Option{simstar.WithC(0.6), simstar.WithK(5)}
	eng := simstar.NewEngine(g, opts...)
	for _, name := range []string{
		simstar.MeasureGeometric, simstar.MeasureGeometricMemo,
		simstar.MeasureExponential, simstar.MeasureExponentialMemo,
		simstar.MeasureSimRank, simstar.MeasureSimRankMatrix,
		simstar.MeasurePRank, simstar.MeasureRWR, simstar.MeasureSparse,
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			m, err := simstar.Lookup(name, opts...)
			if err != nil {
				t.Fatal(err)
			}
			wantAll, err := m.AllPairs(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			gotAll, err := eng.AllPairs(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < g.N(); i++ {
				for j := 0; j < g.N(); j++ {
					if d := math.Abs(gotAll.At(i, j) - wantAll.At(i, j)); d > 1e-12 {
						t.Fatalf("AllPairs(%d,%d) differs by %g", i, j, d)
					}
				}
			}
			want, err := m.SingleSource(ctx, g, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.SingleSource(ctx, name, 1)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if d := math.Abs(got[j] - want[j]); d > 1e-12 {
					t.Fatalf("SingleSource[%d] differs by %g", j, d)
				}
			}
		})
	}
}

func TestEngineTopK(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithK(8))
	ctx := context.Background()
	q, _ := g.NodeByLabel("followup1")
	top, err := eng.TopK(ctx, simstar.MeasureGeometric, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("got %d results, want 3", len(top))
	}
	scores, _ := eng.SingleSource(ctx, simstar.MeasureGeometric, q)
	want := simstar.TopK(scores, 3, q)
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK[%d] = %+v, want %+v", i, top[i], want[i])
		}
	}
	for _, r := range top {
		if r.Node == q {
			t.Fatal("TopK must exclude the query node")
		}
	}
	// Exclusions drop the named nodes from the ranking.
	ex := want[0].Node
	top2, err := eng.TopK(ctx, simstar.MeasureGeometric, q, 3, ex)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range top2 {
		if r.Node == ex {
			t.Fatalf("excluded node %d present in result", ex)
		}
	}
}

// The engine must serve concurrent queries off its shared caches: same
// answers under contention as alone.
func TestEngineConcurrentQueries(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g, simstar.WithK(6))
	ctx := context.Background()
	names := []string{
		simstar.MeasureGeometric, simstar.MeasureGeometricMemo,
		simstar.MeasureExponential, simstar.MeasureRWR,
	}
	want := make(map[string][]float64)
	for _, name := range names {
		row, err := eng.SingleSource(ctx, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = row
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 16; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := names[w%len(names)]
			for rep := 0; rep < 4; rep++ {
				got, err := eng.SingleSource(ctx, name, 0)
				if err != nil {
					errc <- err
					return
				}
				for j := range got {
					if got[j] != want[name][j] {
						errc <- errors.New("concurrent result differs from serial result")
						return
					}
				}
				if _, err := eng.AllPairs(ctx, name); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestEngineCancellation(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("SingleSource error = %v, want context.Canceled", err)
	}
	if _, err := eng.AllPairs(ctx, simstar.MeasureRWR); !errors.Is(err, context.Canceled) {
		t.Fatalf("AllPairs error = %v, want context.Canceled", err)
	}
	if _, err := eng.TopK(ctx, simstar.MeasureGeometric, 0, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopK error = %v, want context.Canceled", err)
	}
}

func TestEngineStats(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g)
	st := eng.Stats()
	if st.Nodes != g.N() || st.Edges != g.M() {
		t.Fatalf("stats %+v disagree with graph n=%d m=%d", st, g.N(), g.M())
	}
	cs := eng.Compression()
	if cs.Edges != g.M() || cs.CompressedEdges <= 0 || cs.CompressedEdges > cs.Edges {
		t.Fatalf("compression %+v out of range (m=%d)", cs, g.M())
	}
	if eng.Graph() != g {
		t.Fatal("Graph() must return the served graph")
	}
}

// A measure registered under a new name, and reached through an alias, is
// served by the engine exactly as Lookup serves it. Re-registering a
// built-in name is TestRegistryOverrideDisplacesKernelRow's case.
func TestEngineHonoursRegistryOverride(t *testing.T) {
	const name = "test-override-rwr"
	simstar.RegisterForTest(t, name, func(opts ...simstar.Option) simstar.Measure {
		return constantMeasure{}
	})
	simstar.RegisterAliasForTest(t, "test-override-alias", name)
	g := toyGraph(t)
	eng := simstar.NewEngine(g)
	for _, query := range []string{name, "test-override-alias"} {
		row, err := eng.SingleSource(context.Background(), query, 0)
		if err != nil {
			t.Fatal(err)
		}
		if row[0] != 1 {
			t.Fatalf("%q: engine served %g, want the override's constant 1", query, row[0])
		}
	}
}

// A damping factor no measure can run — NaN, negative or at least 1 — is
// refused by every entry point, through the engine and through both
// Measure adapters, before any kernel runs; 0 keeps selecting the default.
func TestOutOfRangeCRefused(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g)
	lookup := func(name string, o simstar.Option) simstar.Measure {
		m, err := simstar.Lookup(name, o)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const name = simstar.MeasureGeometric
	calls := []struct {
		entry string
		call  func(o simstar.Option) error
	}{
		{"SingleSource", func(o simstar.Option) error {
			_, err := eng.With(o).SingleSource(ctx, name, 1)
			return err
		}},
		{"SingleSourceCertified/sieved", func(o simstar.Option) error {
			_, _, err := eng.With(o, simstar.WithTolerance(1e-3)).SingleSourceCertified(ctx, name, 1)
			return err
		}},
		{"SingleSourceInto", func(o simstar.Option) error {
			_, err := eng.With(o).SingleSourceInto(ctx, name, 1, nil)
			return err
		}},
		{"TopK", func(o simstar.Option) error {
			_, err := eng.With(o).TopK(ctx, simstar.MeasureRWR, 1, 3)
			return err
		}},
		{"MultiSource", func(o simstar.Option) error {
			return eng.MultiSource(ctx, []simstar.Query{{Measure: name, Node: 1, Opts: []simstar.Option{o}}})[0].Err
		}},
		{"BatchTopK", func(o simstar.Option) error {
			return eng.BatchTopK(ctx, []simstar.Query{{Measure: simstar.MeasurePRank, Node: 1, K: 3, Opts: []simstar.Option{o}}})[0].Err
		}},
		{"AllPairs", func(o simstar.Option) error {
			_, err := eng.With(o).AllPairs(ctx, simstar.MeasureGeometricMemo)
			return err
		}},
		{"Lookup(rwr).AllPairs", func(o simstar.Option) error {
			_, err := lookup(simstar.MeasureRWR, o).AllPairs(ctx, g)
			return err
		}},
		{"Lookup(rwr).SingleSource", func(o simstar.Option) error {
			_, err := lookup(simstar.MeasureRWR, o).SingleSource(ctx, g, 1)
			return err
		}},
		{"Lookup(simrank).AllPairs", func(o simstar.Option) error {
			_, err := lookup(simstar.MeasureSimRank, o).AllPairs(ctx, g)
			return err
		}},
		{"Lookup(simrank).SingleSource", func(o simstar.Option) error {
			_, err := lookup(simstar.MeasureSimRank, o).SingleSource(ctx, g, 1)
			return err
		}},
	}
	for _, c := range []float64{math.NaN(), math.Inf(-1), -0.1, 1, 1.5} {
		for _, tc := range calls {
			if err := tc.call(simstar.WithC(c)); err == nil || !strings.Contains(err.Error(), "damping factor") {
				t.Errorf("%s with C = %g: err = %v, want the damping-factor error", tc.entry, c, err)
			}
		}
	}
	for _, c := range []float64{0, 0.5} {
		for _, tc := range calls {
			if err := tc.call(simstar.WithC(c)); err != nil {
				t.Errorf("%s with C = %g: %v", tc.entry, c, err)
			}
		}
	}
}

// A factory that re-registers a built-in name to return the Measure an
// earlier Lookup of that name gave must not send the engine round in a
// circle: the engine, finding no kernel row for the name, serves the
// override, and the override runs its own row rather than resolving the
// name again. Its answers are the built-in's, bit for bit.
func TestReregisteredBuiltinServed(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	opts := []simstar.Option{simstar.WithC(0.7), simstar.WithK(6)}
	for _, name := range []string{
		simstar.MeasureGeometric, simstar.MeasureGeometricMemo,
		simstar.MeasureExponential, simstar.MeasureExponentialMemo, simstar.MeasureRWR,
	} {
		t.Run(name, func(t *testing.T) {
			eng := simstar.NewEngine(g, opts...)
			wantRow, err := eng.SingleSource(ctx, name, 1)
			if err != nil {
				t.Fatal(err)
			}
			wantAll, err := eng.AllPairs(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := simstar.Lookup(name, opts...)
			if err != nil {
				t.Fatal(err)
			}
			simstar.RegisterForTest(t, name, func(...simstar.Option) simstar.Measure { return m })
			if simstar.HasCertifiedPath(name) {
				t.Fatal("the override kept the built-in's kernel row")
			}
			row, err := eng.SingleSource(ctx, name, 1)
			if err != nil {
				t.Fatal(err)
			}
			all, err := eng.AllPairs(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			for j := range wantRow {
				if row[j] != wantRow[j] {
					t.Fatalf("SingleSource[%d] = %g, want %g", j, row[j], wantRow[j])
				}
			}
			for i := 0; i < g.N(); i++ {
				for j := 0; j < g.N(); j++ {
					if all.At(i, j) != wantAll.At(i, j) {
						t.Fatalf("AllPairs(%d,%d) = %g, want %g", i, j, all.At(i, j), wantAll.At(i, j))
					}
				}
			}
		})
	}
}

func TestEngineRejectsBadQueries(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g)
	ctx := context.Background()
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, -1); err == nil {
		t.Fatal("want error for negative query node")
	}
	if _, err := eng.SingleSource(ctx, "no-such-measure", 0); err == nil {
		t.Fatal("want error for unknown measure")
	}
	if _, err := eng.AllPairs(ctx, "no-such-measure"); err == nil {
		t.Fatal("want error for unknown measure")
	}
}

// SingleSourceInto must agree exactly with SingleSource and reuse the
// caller's buffer.
func TestSingleSourceIntoMatchesSingleSource(t *testing.T) {
	g := dataset.RMATDefault(6, 4, 11)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(4))
	buf := make([]float64, 0, g.N())
	for _, measure := range []string{
		simstar.MeasureGeometric, simstar.MeasureExponential, simstar.MeasureRWR,
		simstar.MeasureSimRank, // no fast path: exercises the fallback copy
	} {
		for q := 0; q < g.N(); q += 9 {
			want, err := eng.SingleSource(ctx, measure, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.SingleSourceInto(ctx, measure, q, buf)
			if err != nil {
				t.Fatal(err)
			}
			if cap(buf) >= g.N() && &got[0] != &buf[:1][0] {
				t.Fatalf("SingleSourceInto did not reuse the caller's buffer")
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s q=%d node %d: Into %g vs SingleSource %g", measure, q, i, got[i], want[i])
				}
			}
		}
	}
	if _, err := eng.SingleSourceInto(ctx, simstar.MeasureGeometric, -1, buf); err == nil {
		t.Fatal("out-of-range query not rejected")
	}
}

// The exact fast-path serving loop must be allocation-free once warmed:
// pooled kernel workspaces, caller-owned result buffer, no result cache. The
// engine serves in natural node order, the one case run.
func TestSingleSourceIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts are not meaningful")
	}
	g := dataset.RMATDefault(9, 4, 13) // 512 nodes
	ctx := context.Background()
	t.Run("natural", func(t *testing.T) {
		eng := simstar.NewEngine(g, simstar.WithCacheSize(-1))
		buf := make([]float64, g.N())
		for _, measure := range []string{simstar.MeasureGeometric, simstar.MeasureExponential, simstar.MeasureRWR} {
			// Warm the workspace pool before counting.
			if _, err := eng.SingleSourceInto(ctx, measure, 0, buf); err != nil {
				t.Fatal(err)
			}
			q := 0
			allocs := testing.AllocsPerRun(50, func() {
				var err error
				if _, err = eng.SingleSourceInto(ctx, measure, q%g.N(), buf); err != nil {
					t.Fatal(err)
				}
				q++
			})
			// A GC between runs can empty the sync.Pool and force a one-off
			// re-grow; anything at or above one alloc per run is a real leak
			// in the steady-state path.
			if allocs >= 1 {
				t.Fatalf("%s: %v allocs/op on the pooled path", measure, allocs)
			}
		}
	})
}
