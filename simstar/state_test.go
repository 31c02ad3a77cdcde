package simstar

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// stateTestGraph is a small strongly connected graph: a ring plus chords.
func stateTestGraph(n int) *Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		edges = append(edges, [2]int{u, (u + 1) % n}, [2]int{u, (u * 7) % n})
	}
	return GraphFromEdges(n, edges)
}

// A superseded epoch state must be garbage as soon as the swap publishes
// its successor: nothing the engine keeps — its scratch pools, which the
// runtime's list of used pools references until the second GC after their
// last use, included — may reach it. With background GC off, one
// runtime.GC must collect the state, for an edit that keeps the node count
// (the successor inherits the pools) and for one that grows it (the
// successor builds its own).
func TestSupersededEpochReleased(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 64
	for _, tc := range []struct {
		name string
		edit Edit
	}{
		{"same-size", InsertEdge(0, n/2)},
		{"grown", InsertEdge(n+3, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(stateTestGraph(n))
			released := make(chan struct{})
			watchWarmState(t, eng, released)
			if _, err := eng.ApplyEdits(tc.edit); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			select {
			case <-released:
			case <-time.After(2 * time.Second):
				t.Fatal("superseded epoch state survived a GC after the swap")
			}
			runtime.KeepAlive(eng)
		})
	}
}

// watchWarmState fills the current state's workspace pool with one
// SingleSourceInto and arranges for released to close when the state is
// collected. A separate frame, so no stack slot of the caller holds the
// state.
func watchWarmState(t *testing.T, eng *Engine, released chan<- struct{}) {
	t.Helper()
	if _, err := eng.SingleSourceInto(context.Background(), MeasureGeometric, 0, nil); err != nil {
		t.Fatal(err)
	}
	runtime.SetFinalizer(eng.load(), func(*engineState) { close(released) })
}

// An epoch builds its two lazy structures only for the reads that need
// them. Qᵀ: exact reads of every kernel family and sieved RWR reads build
// none, and the first sieved SimRank* read builds it. The biclique
// compression: NewEngine, ApplyEdits and every single-source read of every
// kernel-table name — exact or sieved, through SingleSource,
// SingleSourceInto, TopK, MultiSource or BatchTopK, memo aliases included —
// leave it unmined; a memo AllPairs or Compression mines the epoch once,
// and a second call reuses it. The engine serves in natural node order, the
// one layout.
func TestTransposesBuiltIndependently(t *testing.T) {
	ctx := context.Background()
	t.Run("natural", func(t *testing.T) {
		eng := NewEngine(stateTestGraph(64), WithCacheSize(-1))
		st := eng.load()
		sieved := eng.With(WithTolerance(1e-3))
		for _, read := range []struct {
			eng     *Engine
			measure string
		}{
			{eng, MeasureGeometric}, {eng, MeasureExponential}, {eng, MeasureRWR}, {sieved, MeasureRWR},
		} {
			if _, err := read.eng.SingleSource(ctx, read.measure, 0); err != nil {
				t.Fatal(err)
			}
			if st.qt.t != nil {
				t.Fatalf("a %s read (tolerance %g) built Qᵀ", read.measure, read.eng.cfg.tolerance)
			}
		}
		if _, err := sieved.SingleSource(ctx, MeasureGeometric, 0); err != nil {
			t.Fatal(err)
		}
		if st.qt.t == nil {
			t.Fatal("a sieved SimRank* read did not build Qᵀ")
		}
	})
	t.Run("compression", func(t *testing.T) {
		eng := NewEngine(stateTestGraph(64), WithCacheSize(-1))
		base := eng.load()
		unmined := func(st *engineState, after string) {
			t.Helper()
			if st.comp.c != nil {
				t.Fatalf("%s mined epoch %d", after, st.epoch)
			}
		}
		unmined(base, "NewEngine")
		reads := []struct {
			call string
			read func(e *Engine, measure string) error
		}{
			{"SingleSource", func(e *Engine, measure string) error {
				_, err := e.SingleSource(ctx, measure, 1)
				return err
			}},
			{"SingleSourceInto", func(e *Engine, measure string) error {
				_, err := e.SingleSourceInto(ctx, measure, 1, nil)
				return err
			}},
			{"TopK", func(e *Engine, measure string) error {
				_, err := e.TopK(ctx, measure, 1, 3)
				return err
			}},
			{"MultiSource", func(e *Engine, measure string) error {
				return e.MultiSource(ctx, []Query{{Measure: measure, Node: 1}})[0].Err
			}},
			{"BatchTopK", func(e *Engine, measure string) error {
				return e.BatchTopK(ctx, []Query{{Measure: measure, Node: 1, K: 3}})[0].Err
			}},
		}
		names := []string{
			MeasureGeometric, MeasureGeometricMemo, MeasureExponential, MeasureExponentialMemo, MeasureRWR,
			"iter-gsr*", "gsr*", "memo-gsr*", "esr*", "memo-esr*", "ppr",
		}
		for _, tol := range []float64{0, 1e-3} {
			e := eng.With(WithTolerance(tol))
			for _, name := range names {
				if kernelsFor(name) == nil {
					t.Fatalf("%s has no kernel row", name)
				}
				for _, r := range reads {
					if err := r.read(e, name); err != nil {
						t.Fatalf("%s %s (tolerance %g): %v", r.call, name, tol, err)
					}
					unmined(base, fmt.Sprintf("a %s read of %s (tolerance %g)", r.call, name, tol))
				}
			}
		}
		if _, err := eng.ApplyEdits(InsertEdge(0, 9)); err != nil {
			t.Fatal(err)
		}
		unmined(base, "ApplyEdits")
		unmined(eng.load(), "ApplyEdits")

		// Each way in mines once, and the other reuses what it mined.
		for i, first := range []string{"AllPairs", "Compression"} {
			if _, err := eng.ApplyEdits(InsertEdge(i+1, 9)); err != nil {
				t.Fatal(err)
			}
			st := eng.load()
			unmined(st, "ApplyEdits")
			memo := func() {
				t.Helper()
				if _, err := eng.AllPairs(ctx, MeasureExponentialMemo); err != nil {
					t.Fatal(err)
				}
			}
			if first == "AllPairs" {
				memo()
			} else {
				eng.Compression()
			}
			c, dur := st.comp.c, st.comp.dur
			if c == nil {
				t.Fatalf("%s left epoch %d unmined", first, st.epoch)
			}
			memo()
			if cs := eng.Compression(); st.comp.c != c || cs.MiningTime != dur || cs.CompressedEdges != c.MCompressed {
				t.Fatalf("after %s, a second call re-mined epoch %d", first, st.epoch)
			}
		}
	})
}
