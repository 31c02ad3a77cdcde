package core

import (
	"math/rand"
	"testing"
)

// topKRef is the obviously-correct reference: full selection by repeated
// maximum under the same total order TopK documents.
func topKRef(scores []float64, k int, exclude ...int) []Ranked {
	if k <= 0 {
		return nil
	}
	skip := make(map[int]bool, len(exclude))
	for _, e := range exclude {
		skip[e] = true
	}
	var cand []Ranked
	for i, s := range scores {
		if !skip[i] {
			cand = append(cand, Ranked{Node: i, Score: s})
		}
	}
	var out []Ranked
	for len(out) < k && len(cand) > 0 {
		best := 0
		for i := 1; i < len(cand); i++ {
			if rankedBelow(cand[best], cand[i]) {
				best = i
			}
		}
		out = append(out, cand[best])
		cand = append(cand[:best], cand[best+1:]...)
	}
	return out
}

func rankedEqual(a, b []Ranked) bool {
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

func TestTopKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		scores := make([]float64, n)
		for i := range scores {
			// Coarse quantisation forces plenty of exact ties.
			scores[i] = float64(rng.Intn(5)) / 4
		}
		k := rng.Intn(n + 3)
		var exclude []int
		for rng.Intn(3) == 0 {
			exclude = append(exclude, rng.Intn(n+2)-1)
		}
		want := topKRef(scores, k, exclude...)
		got := TopK(scores, k, exclude...)
		if !rankedEqual(got, want) {
			t.Fatalf("trial %d (n=%d k=%d exclude=%v): TopK=%v want %v", trial, n, k, exclude, got, want)
		}
	}
}

func TestTopKLargeExcludeList(t *testing.T) {
	// More than excludeScanMax exclusions takes the map path; the result
	// must not change.
	n := 100
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(i%10) / 10
	}
	var exclude []int
	for i := 0; i < excludeScanMax+5; i++ {
		exclude = append(exclude, i*3)
	}
	want := topKRef(scores, 12, exclude...)
	got := TopK(scores, 12, exclude...)
	if !rankedEqual(got, want) {
		t.Fatalf("map-path TopK=%v want %v", got, want)
	}
}

func TestTopKBoundaries(t *testing.T) {
	scores := []float64{0.3, 0.1, 0.2}
	if got := TopK(scores, 0); got != nil {
		t.Fatalf("k=0: got %v, want nil", got)
	}
	if got := TopK(scores, -1); got != nil {
		t.Fatalf("k<0: got %v, want nil", got)
	}
	if got := TopK(nil, 3); got != nil {
		t.Fatalf("no scores: got %v, want nil", got)
	}
	// k > n returns every candidate, fully ordered.
	got := TopK(scores, 10, 1)
	want := []Ranked{{Node: 0, Score: 0.3}, {Node: 2, Score: 0.2}}
	if !rankedEqual(got, want) {
		t.Fatalf("k>n: got %v, want %v", got, want)
	}
	// All nodes excluded.
	if got := TopK(scores, 2, 0, 1, 2); len(got) != 0 {
		t.Fatalf("all excluded: got %v, want empty", got)
	}
}

func TestTopKTieBreakAscendingNode(t *testing.T) {
	// Equal scores must rank by ascending node id, best-first.
	scores := []float64{0.5, 0.5, 0.5, 0.5, 0.9}
	got := TopK(scores, 3)
	want := []Ranked{{Node: 4, Score: 0.9}, {Node: 0, Score: 0.5}, {Node: 1, Score: 0.5}}
	if !rankedEqual(got, want) {
		t.Fatalf("tie-break: got %v, want %v", got, want)
	}
}
