package simstar

import (
	"context"
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

// Qᵀ is the one transpose an epoch builds, lazily: exact reads of every
// kernel family and sieved RWR reads build none, and the first sieved
// SimRank* read builds it. The engine serves in natural node order, the one
// case run.
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
}
