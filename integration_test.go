package repro

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/prank"
	"repro/internal/rwr"
	"repro/internal/simrank"
	"repro/internal/sparse"
)

// Integration tests assert the paper's claims end to end, across packages —
// the table of Figure 1, the Theorem-1 ⟺ path-analysis equivalence on real
// workloads, and the structural identities behind the Fig. 6(a) undirected
// observations.

// The full Figure-1 table: sign pattern of all four measures on all seven
// pairs, plus three-decimal value checks for the columns our edge
// reconstruction reproduces exactly.
func TestFigure1TableEndToEnd(t *testing.T) {
	g := dataset.Figure1()
	const c, k = 0.8, 25
	sr := simrank.MatrixForm(g, simrank.Options{C: c, K: k})
	pr := prank.MatrixForm(g, prank.Options{C: c, K: k, Lambda: 0.5})
	star := core.Geometric(g, core.Options{C: c, K: k})
	rw := rwr.AllPairs(g, rwr.Options{C: c, K: k})

	id := func(l string) int {
		i, ok := g.NodeByLabel(l)
		if !ok {
			t.Fatalf("missing node %q", l)
		}
		return i
	}
	type rowCheck struct {
		a, b                string
		srPos, prPos, rwPos bool
		starWant            float64 // paper's SR* column (3 decimals)
	}
	rows := []rowCheck{
		{"h", "d", false, true, false, 0.010},
		{"a", "f", false, true, true, 0.032},
		{"a", "c", false, false, true, 0.025},
		{"g", "a", false, false, false, 0.025},
		{"g", "b", false, false, false, 0.075},
		{"i", "a", false, false, false, 0.015},
		{"i", "h", true, true, false, 0.031},
	}
	for _, r := range rows {
		i, j := id(r.a), id(r.b)
		if got := sr.At(i, j) > 1e-9; got != r.srPos {
			t.Errorf("SR(%s,%s) positivity = %v, want %v", r.a, r.b, got, r.srPos)
		}
		// PR's "zero" cells can carry sub-millesimal residue in our edge
		// reconstruction; test at the paper's display precision.
		if got := pr.At(i, j) > 5e-3; got != r.prPos {
			t.Errorf("PR(%s,%s) = %.4f, positivity want %v", r.a, r.b, pr.At(i, j), r.prPos)
		}
		if got := rw.At(i, j) > 1e-9; got != r.rwPos {
			t.Errorf("RWR(%s,%s) positivity = %v, want %v", r.a, r.b, got, r.rwPos)
		}
		if v := star.At(i, j); math.Abs(v-r.starWant) > 0.0016 {
			t.Errorf("SR*(%s,%s) = %.4f, want %.3f (paper)", r.a, r.b, v, r.starWant)
		}
		if star.At(i, j) <= 0 {
			t.Errorf("SR*(%s,%s) must be positive", r.a, r.b)
		}
	}
	// Value checks for the matrix-form SR/PR columns.
	if v := sr.At(id("i"), id("h")); math.Abs(v-0.044) > 0.002 {
		t.Errorf("SR(i,h) = %.4f, want .044", v)
	}
	if v := pr.At(id("h"), id("d")); math.Abs(v-0.049) > 0.002 {
		t.Errorf("PR(h,d) = %.4f, want .049", v)
	}
}

// Theorem 1 at workload scale: on a scaled preset, the set of pairs the
// path analyser marks "completely dissimilar" is exactly the set of
// path-connected pairs with zero SimRank.
func TestTheorem1OnPreset(t *testing.T) {
	p, err := dataset.ByName("D05-s")
	if err != nil {
		t.Fatal(err)
	}
	g := p.Build()
	const k = 4
	s := simrank.PSum(g, simrank.Options{C: 0.9, K: k})
	a := paths.Analyze(g, k)
	n := g.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !a.HasAnyPath(i, j) {
				continue
			}
			zero := s.At(i, j) == 0
			if zero != !a.Sym.Get(i, j) {
				t.Fatalf("pair (%d,%d): SimRank zero=%v but symmetric-path=%v",
					i, j, zero, a.Sym.Get(i, j))
			}
		}
	}
}

// The Fig. 6(a) undirected identity: on a symmetric graph I(x) = O(x), so
// P-Rank's in- and out-terms coincide and P-Rank equals SimRank exactly for
// any λ.
func TestUndirectedPRankEqualsSimRank(t *testing.T) {
	net := dataset.Coauthor(dataset.CoauthorOptions{Authors: 150, Seed: 77})
	g := net.G
	if !g.IsSymmetric() {
		t.Fatal("coauthor graph must be symmetric")
	}
	for _, lambda := range []float64{0.3, 0.5, 0.9} {
		pr := prank.AllPairs(g, prank.Options{C: 0.6, K: 5, Lambda: lambda})
		sr := simrank.PSum(g, simrank.Options{C: 0.6, K: 5})
		if d := pr.MaxAbsDiff(sr); d > 1e-10 {
			t.Fatalf("λ=%.1f: undirected P-Rank differs from SimRank by %g", lambda, d)
		}
	}
}

// On an undirected graph RWR obeys detailed balance, d_i·s(i,j) =
// d_j·s(j,i): the "Me vs Father" one-way-zero pathology disappears (either
// both directions are positive or both are zero) — the reason RWR catches
// up with SimRank* in the paper's DBLP panel.
func TestUndirectedRWRDetailedBalance(t *testing.T) {
	net := dataset.Coauthor(dataset.CoauthorOptions{Authors: 120, Seed: 78})
	g := net.G
	rw := rwr.AllPairs(g, rwr.Options{C: 0.6, K: 5})
	n := g.N()
	for i := 0; i < n; i++ {
		di := float64(g.OutDeg(i))
		for j := i + 1; j < n; j++ {
			dj := float64(g.OutDeg(j))
			lhs := di * rw.At(i, j)
			rhs := dj * rw.At(j, i)
			if math.Abs(lhs-rhs) > 1e-10 {
				t.Fatalf("detailed balance violated at (%d,%d): %g vs %g", i, j, lhs, rhs)
			}
			if (rw.At(i, j) > 0) != (rw.At(j, i) > 0) {
				t.Fatalf("one-way zero at (%d,%d) on an undirected graph", i, j)
			}
		}
	}
}

// All-pairs and single-source SimRank* must agree on a workload-scale
// preset through the full pipeline (compression included).
func TestSingleSourceAgreesOnPreset(t *testing.T) {
	p, _ := dataset.ByName("D05-s")
	g := p.Build()
	opt := core.Options{C: 0.6, K: 5}
	all := core.GeometricMemo(g, opt)
	for _, q := range []int{0, g.N() / 2, g.N() - 1} {
		row, err := core.SingleSourceGeometricFromTransition(context.Background(), sparse.BackwardTransition(g), q, opt)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range row {
			if math.Abs(v-all.At(q, j)) > 1e-10 {
				t.Fatalf("q=%d j=%d: %g vs %g", q, j, v, all.At(q, j))
			}
		}
	}
}

// The ε-driven iteration choice must actually deliver ε accuracy against a
// deeply converged reference, for both forms.
func TestEpsDrivenAccuracy(t *testing.T) {
	g := dataset.ErdosRenyi(80, 500, 9)
	const c, eps = 0.6, 0.001
	geoRef := core.Geometric(g, core.Options{C: c, K: 80})
	geo := core.Geometric(g, core.Options{C: c, Eps: eps})
	if d := geo.MaxAbsDiff(geoRef); d > eps {
		t.Fatalf("geometric ε-run off by %g > %g", d, eps)
	}
	expRef := core.Exponential(g, core.Options{C: c, K: 40})
	exp := core.Exponential(g, core.Options{C: c, Eps: eps})
	if d := exp.MaxAbsDiff(expRef); d > eps {
		t.Fatalf("exponential ε-run off by %g > %g", d, eps)
	}
}

// Round-trip the quickstart scenario through graph I/O and both solver
// backends — the path a downstream user hits first.
func TestQuickstartScenario(t *testing.T) {
	b := graph.NewBuilder()
	for _, e := range [][2]string{
		{"survey", "classicA"}, {"survey", "classicB"},
		{"followup1", "survey"}, {"followup2", "survey"},
		{"review", "followup1"}, {"review", "followup2"},
		{"preprint", "followup1"},
	} {
		b.AddEdgeLabeled(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{C: 0.6, K: 10}
	star := core.GeometricMemo(g, opt)
	sr := simrank.MatrixForm(g, simrank.Options{C: 0.6, K: 10})

	id := func(l string) int { i, _ := g.NodeByLabel(l); return i }
	// Co-cited pairs: both positive.
	if star.At(id("classicA"), id("classicB")) <= 0 || sr.At(id("classicA"), id("classicB")) <= 0 {
		t.Fatal("co-cited classics must be similar under both measures")
	}
	// Cross-generation: SimRank blind, SimRank* not.
	if sr.At(id("survey"), id("classicA")) != 0 {
		t.Fatal("SimRank(survey, classicA) must be 0")
	}
	if star.At(id("survey"), id("classicA")) <= 0 {
		t.Fatal("SimRank*(survey, classicA) must be positive")
	}
	// No in-link path at all: both zero.
	if star.At(id("preprint"), id("followup2")) != 0 {
		t.Fatal("SimRank*(preprint, followup2) must be 0 (no in-link path)")
	}
}
