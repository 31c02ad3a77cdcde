package simstar_test

import (
	"context"
	"errors"
	"testing"

	"repro/simstar"
)

// toyGraph builds a small labelled citation graph with enough structure to
// exercise every measure: co-citations, chains, a sink and a source.
func toyGraph(t testing.TB) *simstar.Graph {
	t.Helper()
	b := simstar.NewGraphBuilder()
	for _, e := range [][2]string{
		{"survey", "classicA"}, {"survey", "classicB"},
		{"followup1", "survey"}, {"followup2", "survey"},
		{"review", "followup1"}, {"review", "followup2"},
		{"preprint", "followup1"}, {"preprint", "classicA"},
		{"classicB", "classicA"},
	} {
		b.AddEdgeLabeled(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Every registered measure must honour context cancellation, reporting
// ctx.Err() rather than a result.
func TestMeasureConformanceCancellation(t *testing.T) {
	g := toyGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range simstar.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := simstar.Lookup(name, simstar.WithK(50))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.AllPairs(ctx, g); !errors.Is(err, context.Canceled) {
				t.Fatalf("AllPairs error = %v, want context.Canceled", err)
			}
			if _, err := m.SingleSource(ctx, g, 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("SingleSource error = %v, want context.Canceled", err)
			}
		})
	}
}

// Cancellation must also interrupt a run already in flight, between
// iterations, not only reject at the entry check.
func TestCancellationMidIteration(t *testing.T) {
	g := toyGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	m, err := simstar.Lookup(simstar.MeasureGeometric, simstar.WithK(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.AllPairs(ctx, g)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run error = %v, want context.Canceled", err)
	}
}

func TestSingleSourceRejectsOutOfRangeQuery(t *testing.T) {
	g := toyGraph(t)
	m, err := simstar.Lookup(simstar.MeasureGeometric)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{-1, g.N()} {
		if _, err := m.SingleSource(context.Background(), g, q); err == nil {
			t.Fatalf("q=%d: want error, got nil", q)
		}
	}
}

func TestLookupUnknownMeasure(t *testing.T) {
	if _, err := simstar.Lookup("no-such-measure"); err == nil {
		t.Fatal("want error for unknown measure")
	}
}

func TestLookupAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"iter-gsr*": simstar.MeasureGeometric,
		"memo-gsr*": simstar.MeasureGeometricMemo,
		"esr*":      simstar.MeasureExponential,
		"memo-esr*": simstar.MeasureExponentialMemo,
		"psum-sr":   simstar.MeasureSimRank,
		"PPR":       simstar.MeasureRWR, // case-insensitive
	} {
		m, err := simstar.Lookup(alias)
		if err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if m.Name() != want {
			t.Fatalf("alias %q resolved to %q, want %q", alias, m.Name(), want)
		}
	}
}

// All six measure families the paper studies must be registered.
func TestAllFamiliesRegistered(t *testing.T) {
	for _, name := range []string{
		simstar.MeasureGeometric, simstar.MeasureGeometricMemo,
		simstar.MeasureExponential, simstar.MeasureExponentialMemo,
		simstar.MeasureSimRank, simstar.MeasurePRank,
		simstar.MeasureRWR, simstar.MeasureSparse,
	} {
		if _, err := simstar.Lookup(name); err != nil {
			t.Fatalf("measure %q not registered: %v", name, err)
		}
	}
}

// Custom registration: applications can plug their own measures into the
// registry and select them by name like any built-in.
func TestRegisterCustomMeasure(t *testing.T) {
	simstar.RegisterForTest(t, "test-constant", func(opts ...simstar.Option) simstar.Measure {
		return constantMeasure{}
	})
	m, err := simstar.Lookup("test-constant")
	if err != nil {
		t.Fatal(err)
	}
	row, err := m.SingleSource(context.Background(), toyGraph(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 1 {
		t.Fatalf("custom measure row[0] = %g, want 1", row[0])
	}
}

// constantMeasure is a minimal conformant third-party measure: it honours
// cancellation and its SingleSource equals the AllPairs rows.
type constantMeasure struct{}

func (constantMeasure) Name() string { return "test-constant" }

func (constantMeasure) AllPairs(ctx context.Context, g *simstar.Graph) (*simstar.Scores, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows := make([][]float64, g.N())
	for i := range rows {
		rows[i] = make([]float64, g.N())
		for j := range rows[i] {
			rows[i][j] = 1
		}
	}
	return simstar.ScoresFromRows(rows), nil
}

func (constantMeasure) SingleSource(ctx context.Context, g *simstar.Graph, q int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	row := make([]float64, g.N())
	for i := range row {
		row[i] = 1
	}
	return row, nil
}
