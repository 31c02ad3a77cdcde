package graph

import (
	"math/rand"
	"testing"
)

func checkBijection(t *testing.T, perm []int32, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			t.Fatalf("perm[%d] = %d is not a bijection", i, p)
		}
		seen[p] = true
	}
}

// shuffledPath builds a path graph 0→1→…→n-1 and hides it behind a random
// relabeling.
func shuffledPath(n int, seed int64) (*Graph, []int) {
	rng := rand.New(rand.NewSource(seed))
	shuf := rng.Perm(n)
	b := NewBuilder()
	b.EnsureN(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(shuf[i], shuf[i+1])
	}
	return b.mustBuild(), shuf
}

func TestDegreeOrder(t *testing.T) {
	g, _ := shuffledPath(64, 3)
	perm := DegreeOrder(g)
	checkBijection(t, perm, g.N())

	// Descending degree along the new numbering.
	inv := make([]int32, g.N())
	for old, new_ := range perm {
		inv[new_] = int32(old)
	}
	prev := int(^uint(0) >> 1)
	for ni := 0; ni < g.N(); ni++ {
		old := int(inv[ni])
		d := g.InDeg(old) + g.OutDeg(old)
		if d > prev {
			t.Fatalf("degree rises along new order at %d: %d > %d", ni, d, prev)
		}
		prev = d
	}
}

func TestDegreeOrderCoversAllComponentsAndIsolates(t *testing.T) {
	b := NewBuilder()
	b.EnsureN(10)
	// Two components plus isolated nodes 8, 9.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 3}, {6, 7}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.mustBuild()
	checkBijection(t, DegreeOrder(g), g.N())
}
