package simstar_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/simstar"
)

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
