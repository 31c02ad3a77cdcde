package rwr

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/sparse"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder()
	b.EnsureN(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// AllPairs must equal the brute-force Eq. (6) partial sum
// (1−C)·Σ_{k<=K} Cᵏ·Wᵏ.
func TestAllPairsMatchesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.Graph{dataset.Figure1(), randomGraph(rng, 15, 60)} {
		const c, k = 0.6, 6
		got := AllPairs(g, Options{C: c, K: k})
		w := sparse.ForwardTransition(g).ToDense()
		want := dense.New(g.N(), g.N())
		wl := dense.Identity(g.N())
		for l := 0; l <= k; l++ {
			want.Axpy(math.Pow(c, float64(l)), wl)
			wl = dense.Mul(wl, w)
		}
		want.Scale(1 - c)
		if d := got.MaxAbsDiff(want); d > 1e-10 {
			t.Fatalf("AllPairs vs series differ by %g", d)
		}
	}
}

// Property: SingleSource equals the matching AllPairs row.
func TestQuickSingleSourceMatchesRow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomGraph(rng, n, rng.Intn(4*n))
		opt := Options{C: 0.6, K: 5}
		all := AllPairs(g, opt)
		q := rng.Intn(n)
		row, err := SingleSourceFromTransition(context.Background(), sparse.ForwardTransition(g), q, opt)
		if err != nil {
			return false
		}
		for j, v := range row {
			if math.Abs(v-all.At(q, j)) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Sec. 3.1: RWR is asymmetric. On the family tree, Father reaches Me
// (s(Father, Me) > 0) but no path runs Me→Father (s(Me, Father) = 0) —
// "RWR alleges Me and Father being dissimilar".
func TestFamilyTreeAsymmetry(t *testing.T) {
	g := dataset.FamilyTree()
	s := AllPairs(g, Options{C: 0.8, K: 10})
	father, _ := g.NodeByLabel("Father")
	me, _ := g.NodeByLabel("Me")
	cousin, _ := g.NodeByLabel("Cousin")
	uncle, _ := g.NodeByLabel("Uncle")
	if v := s.At(father, me); v <= 0 {
		t.Fatalf("RWR(Father, Me) = %g, want > 0", v)
	}
	if v := s.At(me, father); v != 0 {
		t.Fatalf("RWR(Me, Father) = %g, want 0", v)
	}
	// RWR ignores "Me and Cousin" (no directed path either way).
	if v := s.At(me, cousin); v != 0 {
		t.Fatalf("RWR(Me, Cousin) = %g, want 0", v)
	}
	// And "Me and Uncle".
	if v := s.At(me, uncle); v != 0 {
		t.Fatalf("RWR(Me, Uncle) = %g, want 0", v)
	}
}

// Figure-1 table, column RWR: (a,f) and (a,c) positive via directed paths,
// (h,d), (g,a), (g,b), (i,a), (i,h) zero.
func TestFigure1Pattern(t *testing.T) {
	g := dataset.Figure1()
	s := AllPairs(g, Options{C: 0.8, K: 15})
	id := func(l string) int {
		i, ok := g.NodeByLabel(l)
		if !ok {
			t.Fatalf("missing %q", l)
		}
		return i
	}
	if v := s.At(id("a"), id("f")); v <= 0 { // a→b→f
		t.Errorf("RWR(a,f) = %g, want > 0", v)
	}
	if v := s.At(id("a"), id("c")); v <= 0 { // a→b→c, a→d→c
		t.Errorf("RWR(a,c) = %g, want > 0", v)
	}
	for _, p := range [][2]string{{"h", "d"}, {"g", "a"}, {"g", "b"}, {"i", "a"}, {"i", "h"}} {
		if v := s.At(id(p[0]), id(p[1])); v != 0 {
			t.Errorf("RWR(%s,%s) = %g, want 0", p[0], p[1], v)
		}
	}
}

// Property: scores in [0, 1]; diagonal at least the restart mass 1−C.
func TestQuickRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomGraph(rng, n, rng.Intn(4*n))
		s := AllPairs(g, Options{C: 0.7, K: 6})
		for i := 0; i < n; i++ {
			if s.At(i, i) < 1-0.7-1e-12 {
				return false
			}
			for j := 0; j < n; j++ {
				if v := s.At(i, j); v < 0 || v > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Each row of (1−C)·Σ Cᵏ·Wᵏ sums to at most 1 (equality without sinks).
func TestRowMassBound(t *testing.T) {
	g := dataset.Cycle(6) // no sinks: rows sum to (1−C)Σ Cᵏ exactly
	const c, k = 0.6, 8
	s := AllPairs(g, Options{C: c, K: k})
	wantMass := 0.0
	for l := 0; l <= k; l++ {
		wantMass += math.Pow(c, float64(l))
	}
	wantMass *= 1 - c
	for i := 0; i < 6; i++ {
		var sum float64
		for j := 0; j < 6; j++ {
			sum += s.At(i, j)
		}
		if math.Abs(sum-wantMass) > 1e-12 {
			t.Fatalf("row %d mass = %g, want %g", i, sum, wantMass)
		}
	}
}

func TestSieve(t *testing.T) {
	s := AllPairs(dataset.Figure1(), Options{C: 0.6, K: 5, Sieve: 1e-2})
	for _, v := range s.Data {
		if v != 0 && v < 1e-2 {
			t.Fatalf("sieved score %g", v)
		}
	}
	vec, err := SingleSourceFromTransition(context.Background(), sparse.ForwardTransition(dataset.Figure1()), 0, Options{C: 0.6, K: 5, Sieve: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vec {
		if v != 0 && v < 1e-2 {
			t.Fatalf("sieved vector score %g", v)
		}
	}
}
