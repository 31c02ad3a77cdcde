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

// Each transpose is built on its own first use: a sieved RWR read needs
// neither, a sieved SimRank* read only Qᵀ.
func TestTransposesBuiltIndependently(t *testing.T) {
	eng := NewEngine(stateTestGraph(64), WithTolerance(1e-3), WithCacheSize(-1))
	st := eng.load()
	ctx := context.Background()
	if _, err := eng.SingleSource(ctx, MeasureRWR, 0); err != nil {
		t.Fatal(err)
	}
	if st.tr.backward.t != nil || st.tr.forward.t != nil {
		t.Fatal("a sieved RWR read built a transpose")
	}
	if _, err := eng.SingleSource(ctx, MeasureGeometric, 0); err != nil {
		t.Fatal(err)
	}
	if st.tr.backward.t == nil || st.tr.forward.t != nil {
		t.Fatalf("after a sieved SimRank* read: Qᵀ built %v, Wᵀ built %v; want only Qᵀ",
			st.tr.backward.t != nil, st.tr.forward.t != nil)
	}
}
