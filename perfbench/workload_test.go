package main

import (
	"testing"

	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := buildGraph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOpStreamDeterminism(t *testing.T) {
	g := testGraph(t)
	for _, w := range workloads {
		a := checksum(genOps(w, g, 7, 2))
		b := checksum(genOps(w, g, 7, 2))
		c := checksum(genOps(w, g, 8, 2))
		if a != b {
			t.Errorf("%s: seed 7 gave checksums %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share checksum %s", w.name, a)
		}
	}
}

func TestChecksumCoversEveryField(t *testing.T) {
	base := []op{{Kind: opEdit, Phase: phaseTimed, Insert: [][2]int{{1, 2}}, Delete: [][2]int{{3, 4}}}}
	variants := [][]op{
		{{Kind: opEdit, Phase: phaseProbe, Insert: [][2]int{{1, 2}}, Delete: [][2]int{{3, 4}}}},
		{{Kind: opEdit, Phase: phaseTimed, Insert: [][2]int{{1, 2}}, Delete: [][2]int{{3, 5}}}},
		{{Kind: opEdit, Phase: phaseTimed, Insert: [][2]int{{1, 2}, {3, 4}}}},
		{{Kind: opTopK, Phase: phaseTimed, Q: []query{{classGeo, 1}}}},
		{{Kind: opTopK, Phase: phaseTimed, Stream: true, Q: []query{{classGeo, 1}}}},
	}
	seen := map[string]bool{checksum(base): true}
	for _, v := range variants {
		c := checksum(v)
		if seen[c] {
			t.Errorf("checksum collision for %+v", v)
		}
		seen[c] = true
	}
}

func TestHotWorkloadShape(t *testing.T) {
	g := testGraph(t)
	w, _ := findWorkload("topk_hot")
	ops := genOps(w, g, 3, 2)
	keys := map[query]bool{}
	var classes [numClasses]int
	primed, timed, streamed := 0, 0, 0
	for _, o := range ops {
		switch o.Phase {
		case phasePrime:
			primed++
			keys[o.Q[0]] = true
			classes[o.Q[0].Class]++
			if o.Stream {
				t.Error("priming read is streamed")
			}
		case phaseTimed:
			timed++
			if !keys[o.Q[0]] {
				t.Fatalf("timed read %v outside the primed keys", o.Q[0])
			}
			if o.Stream {
				streamed++
			}
		}
	}
	if primed != hotKeys || len(keys) != hotKeys || classes != hotKeyCounts {
		t.Errorf("primed %d reads over %d keys with classes %v", primed, len(keys), classes)
	}
	if timed != w.timedOps(2) || streamed != timed/2 {
		t.Errorf("%d timed reads, %d streamed", timed, streamed)
	}
}

func TestColdMixIsExact(t *testing.T) {
	g := testGraph(t)
	w, _ := findWorkload("topk_cold")
	var classes [numClasses]int
	for _, o := range genOps(w, g, 5, 4) {
		if o.Phase == phaseTimed {
			classes[o.Q[0].Class]++
		}
	}
	// 300 reads: 15 whole decks of 7, 7, 3, 3.
	if classes != [numClasses]int{105, 105, 45, 45} {
		t.Errorf("class counts %v", classes)
	}
}

func TestEditScript(t *testing.T) {
	g := testGraph(t)
	w, _ := findWorkload("topk_edits")
	ops := genOps(w, g, 9, 4)
	live := map[[2]int]bool{}
	var order [][2]int
	requests, reads, streamed := 0, 0, 0
	for i, o := range ops {
		if o.Phase != phaseTimed {
			continue
		}
		if o.Kind != opEdit {
			reads++
			if o.Stream {
				streamed++
			}
			continue
		}
		requests++
		if len(o.Insert) != editInserts {
			t.Fatalf("edit %d inserts %d edges", i, len(o.Insert))
		}
		for _, e := range o.Insert {
			if g.HasEdge(e[0], e[1]) || live[e] || e[0] == e[1] {
				t.Fatalf("edit %d inserts %v, which is not a new edge", i, e)
			}
			live[e] = true
			order = append(order, e)
		}
		if len(o.Delete) > 0 {
			for j, e := range o.Delete {
				if e != order[j] {
					t.Fatalf("edit %d deletes %v, want the oldest live edge %v", i, e, order[j])
				}
				delete(live, e)
			}
			order = order[len(o.Delete):]
		}
		if len(live) > editLive {
			t.Fatalf("%d inserted edges live after edit %d", len(live), i)
		}
	}
	if requests != w.timedOps(4)/editEvery {
		t.Errorf("%d edit requests in %d timed ops", requests, w.timedOps(4))
	}
	if streamed != reads/2 {
		t.Errorf("%d of %d reads streamed", streamed, reads)
	}
	for _, o := range ops {
		if o.Phase == phaseProbe && o.Kind == opEdit {
			t.Fatal("the probe adds edits to a workload that times its own")
		}
	}
}
