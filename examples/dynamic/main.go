// Dynamic graphs: the evolving-workload example. A citation graph does not
// hold still — papers appear, links are added, mistakes are retracted. This
// example streams edge mutations into a live Engine with ApplyEdits and
// shows the three properties the dyngraph subsystem guarantees:
//
//   - queries keep answering while edits stream in (each sees one epoch),
//
//   - each mutation batch refreshes the preprocessing incrementally,
//     cheaper than rebuilding the engine from scratch,
//
//   - the refreshed engine's scores match a from-scratch build exactly.
//
// Run it with:
//
//	go run ./examples/dynamic
package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/simstar"
)

func main() {
	// A synthetic citation DAG big enough that rebuild cost is visible.
	g := dataset.PrefAttachDAG(4000, 8, 1)
	ctx := context.Background()

	t0 := time.Now()
	eng := simstar.NewEngine(g, simstar.WithC(0.6), simstar.WithK(6))
	buildTime := time.Since(t0)
	fmt.Printf("engine built: %d nodes, %d edges in %v (epoch %d)\n",
		g.N(), g.M(), buildTime.Round(time.Microsecond), eng.Epoch())

	query := 100
	before, err := eng.TopK(ctx, simstar.MeasureGeometric, query, 5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ntop-5 of node %d before churn: %v\n", query, before)

	// Stream ~1%-churn batches: new citations appear, a few are retracted.
	// Every batch materialises a new epoch; the transition matrices are
	// spliced incrementally, and the result cache versions itself out.
	var refreshTotal time.Duration
	var added [][2]int // edges inserted by earlier batches, retraction fodder
	batches := 10
	for b := 0; b < batches; b++ {
		var edits []simstar.Edit
		settled := len(added) // only retract edges from earlier batches
		for i := 0; i < 150; i++ {
			if i%5 == 0 && settled > 0 {
				settled--
				e := added[settled]
				added = append(added[:settled], added[settled+1:]...)
				edits = append(edits, simstar.DeleteEdge(e[0], e[1]))
				continue
			}
			u := (b*331 + i*17) % g.N()
			v := (b*739 + i*29) % g.N()
			edits = append(edits, simstar.InsertEdge(u, v))
			added = append(added, [2]int{u, v})
		}
		st, err := eng.ApplyEdits(edits...)
		if err != nil {
			panic(err)
		}
		refreshTotal += st.RefreshTime
		if b == 0 || b == batches-1 {
			fmt.Printf("batch %2d: epoch %d, +%d −%d edges, refreshed in %v\n",
				b, st.Epoch, st.Inserted, st.Removed, st.RefreshTime.Round(time.Microsecond))
		}
	}
	snap := eng.Snapshot()
	fmt.Printf("\nafter %d batches: epoch %d, %d nodes, %d edges\n",
		batches, snap.Epoch, snap.Graph.N(), snap.Graph.M())
	fmt.Printf("incremental refresh: %v per batch on average — vs one from-scratch build: %v\n",
		(refreshTotal / time.Duration(batches)).Round(time.Microsecond), buildTime.Round(time.Microsecond))

	after, err := eng.TopK(ctx, simstar.MeasureGeometric, query, 5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("top-5 of node %d after churn:  %v\n", query, after)

	// The incremental engine answers exactly like a from-scratch engine on
	// the mutated graph — bitwise, for every measure.
	fresh := simstar.NewEngine(snap.Graph, simstar.WithC(0.6), simstar.WithK(6))
	a, err := eng.SingleSource(ctx, simstar.MeasureGeometric, query)
	if err != nil {
		panic(err)
	}
	b, err := fresh.SingleSource(ctx, simstar.MeasureGeometric, query)
	if err != nil {
		panic(err)
	}
	for i := range a {
		if a[i] != b[i] {
			panic("incremental and from-scratch scores diverge")
		}
	}
	fmt.Println("\nincremental scores are bitwise-identical to a from-scratch build ✓")
}
