package simstar

import (
	"context"
	"testing"
)

// onesMeasure scores every pair 1, which no built-in kernel produces.
type onesMeasure struct{}

func (onesMeasure) Name() string { return MeasureRWR }

func (onesMeasure) AllPairs(ctx context.Context, g *Graph) (*Scores, error) {
	rows := make([][]float64, g.N())
	for i := range rows {
		rows[i], _ = onesMeasure{}.SingleSource(ctx, g, i)
	}
	return ScoresFromRows(rows), nil
}

func (onesMeasure) SingleSource(ctx context.Context, g *Graph, q int) ([]float64, error) {
	s := make([]float64, g.N())
	for i := range s {
		s[i] = 1
	}
	return s, nil
}

// Re-registering a built-in name must drop its kernel row, so every route
// the engine dispatches through the table serves the override, by name and
// by alias, and HasCertifiedPath stops promising a certificate the override
// cannot give.
func TestRegistryOverrideDisplacesKernelRow(t *testing.T) {
	RegisterForTest(t, MeasureRWR, func(...Option) Measure { return onesMeasure{} })

	const q, k = 3, 4
	ctx := context.Background()
	// The cache is off, so every route reaches its own dispatch.
	eng := NewEngine(stateTestGraph(16), WithCacheSize(-1))
	for _, name := range []string{MeasureRWR, "ppr"} {
		if HasCertifiedPath(name) {
			t.Errorf("%s: HasCertifiedPath = true for an override", name)
		}
		wantOnes := func(route string, scores []float64, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", name, route, err)
			}
			for i, s := range scores {
				if s != 1 {
					t.Fatalf("%s %s: score[%d] = %g, want the override's 1", name, route, i, s)
				}
			}
		}
		wantRanked := func(route string, top []Ranked) {
			t.Helper()
			if len(top) != k {
				t.Fatalf("%s %s: %d entries, want %d", name, route, len(top), k)
			}
			for _, r := range top {
				if r.Score != 1 {
					t.Fatalf("%s %s: node %d scored %g, want the override's 1", name, route, r.Node, r.Score)
				}
			}
		}

		scores, err := eng.SingleSource(ctx, name, q)
		wantOnes("SingleSource", scores, err)
		scores, err = eng.SingleSourceInto(ctx, name, q, nil)
		wantOnes("SingleSourceInto", scores, err)

		top, err := eng.TopK(ctx, name, q, k)
		if err != nil {
			t.Fatalf("%s TopK: %v", name, err)
		}
		wantRanked("TopK", top)

		res := eng.BatchTopK(ctx, []Query{{Measure: name, Node: q, K: k}})[0]
		if res.Err != nil {
			t.Fatalf("%s BatchTopK: %v", name, res.Err)
		}
		wantRanked("BatchTopK", res.Top)

		all, err := eng.AllPairs(ctx, name)
		if err != nil {
			t.Fatalf("%s AllPairs: %v", name, err)
		}
		wantOnes("AllPairs", all.Row(q), nil)

		scores, maxErr, err := eng.With(WithTolerance(1e-3)).SingleSourceCertified(ctx, name, q)
		wantOnes("WithTolerance", scores, err)
		if maxErr != 0 {
			t.Fatalf("%s WithTolerance: MaxError %g from an override, want 0", name, maxErr)
		}
	}
}
