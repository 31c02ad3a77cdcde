package simstar_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/simstar"
)

// An injected kernel panic must surface as an ErrKernelPanic-wrapped error
// on every serving path — never a process crash — and the engine must keep
// serving correct answers afterwards.
func TestKernelPanicIsolated(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g)
	boom := eng.With(simstar.WithFaultHook(func(site string) {
		if site == simstar.FaultPointKernel {
			panic("injected kernel fault")
		}
	}))
	ctx := context.Background()

	if _, err := boom.SingleSource(ctx, simstar.MeasureGeometric, 1); !errors.Is(err, simstar.ErrKernelPanic) {
		t.Fatalf("SingleSource: got %v, want ErrKernelPanic", err)
	}
	if _, err := boom.TopK(ctx, simstar.MeasureRWR, 1, 3); !errors.Is(err, simstar.ErrKernelPanic) {
		t.Fatalf("TopK: got %v, want ErrKernelPanic", err)
	}
	if _, err := boom.SingleSourceInto(ctx, simstar.MeasureExponential, 1, nil); !errors.Is(err, simstar.ErrKernelPanic) {
		t.Fatalf("SingleSourceInto: got %v, want ErrKernelPanic", err)
	}
	res := boom.MultiSource(ctx, []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 0},
		{Measure: simstar.MeasureGeometric, Node: 1},
		{Measure: simstar.MeasureRWR, Node: 2},
	})
	for i, r := range res {
		if !errors.Is(r.Err, simstar.ErrKernelPanic) {
			t.Fatalf("batch result %d: got %v, want ErrKernelPanic", i, r.Err)
		}
	}

	// The shared engine (no hook) is unharmed: pooled workspaces and caches
	// survive the recovered panics and exact serving continues.
	scores, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1)
	if err != nil {
		t.Fatalf("engine did not survive injected panics: %v", err)
	}
	if scores[1] == 0 {
		t.Fatal("self-similarity vanished after recovered panics")
	}
}

// A query whose WithDeadline budget expires mid-kernel must abort with
// context.DeadlineExceeded, and an attached Observer must count the abort.
func TestWithDeadlineAbortsSlowQuery(t *testing.T) {
	g := toyGraph(t)
	o := simstar.NewObserver(nil)
	eng := simstar.NewEngine(g, simstar.WithObserver(o)).With(
		simstar.WithDeadline(time.Millisecond),
		simstar.WithCacheSize(-1),
		simstar.WithFaultHook(func(string) { time.Sleep(20 * time.Millisecond) }),
	)
	_, err := eng.SingleSource(context.Background(), simstar.MeasureGeometric, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	snap := o.Registry().Snapshot()
	if got := snap["simstar_deadline_exceeded_total"]; got != 1 {
		t.Fatalf("simstar_deadline_exceeded_total = %g, want 1", got)
	}
	if got := snap["simstar_cancel_latency_seconds_count"]; got != 1 {
		t.Fatalf("simstar_cancel_latency_seconds count = %g, want 1", got)
	}
}

// A caller deadline that has already passed must be counted once per
// distinct query on every query entry point, before any kernel runs. A
// batch duplicate shares its representative's count.
func TestExpiredDeadlineCountedOnEveryEntryPoint(t *testing.T) {
	g := toyGraph(t)
	batch := []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 1, K: 3},
		{Measure: simstar.MeasureGeometric, Node: 1, K: 3},
		{Measure: simstar.MeasureRWR, Node: 2, K: 3},
	}
	// batchErr returns the first result's error, or a distinct error when
	// any result succeeded.
	batchErr := func(res []simstar.Result) error {
		for _, r := range res {
			if r.Err == nil {
				return errors.New("a batch result succeeded past an expired deadline")
			}
		}
		return res[0].Err
	}
	for _, tc := range []struct {
		name  string
		query func(ctx context.Context, eng *simstar.Engine) error
		want  float64
	}{
		{"SingleSource", func(ctx context.Context, eng *simstar.Engine) error {
			_, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1)
			return err
		}, 1},
		{"SingleSourceInto", func(ctx context.Context, eng *simstar.Engine) error {
			_, err := eng.SingleSourceInto(ctx, simstar.MeasureGeometric, 1, nil)
			return err
		}, 1},
		{"TopK", func(ctx context.Context, eng *simstar.Engine) error {
			_, err := eng.TopK(ctx, simstar.MeasureGeometric, 1, 3)
			return err
		}, 1},
		{"BatchTopK-sieved", func(ctx context.Context, eng *simstar.Engine) error {
			return batchErr(eng.With(simstar.WithTolerance(1e-3)).BatchTopK(ctx, batch[:1]))
		}, 1},
		{"BatchTopK", func(ctx context.Context, eng *simstar.Engine) error {
			return batchErr(eng.BatchTopK(ctx, batch))
		}, 2},
		{"MultiSource", func(ctx context.Context, eng *simstar.Engine) error {
			return batchErr(eng.MultiSource(ctx, batch))
		}, 2},
		{"AllPairs", func(ctx context.Context, eng *simstar.Engine) error {
			_, err := eng.AllPairs(ctx, simstar.MeasureGeometric)
			return err
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := simstar.NewObserver(nil)
			eng := simstar.NewEngine(g, simstar.WithObserver(o))
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			if err := tc.query(ctx, eng); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("got %v, want context.DeadlineExceeded", err)
			}
			if got := o.Registry().Snapshot()["simstar_deadline_exceeded_total"]; got != tc.want {
				t.Fatalf("simstar_deadline_exceeded_total = %g, want %g", got, tc.want)
			}
		})
	}
}

// A generous deadline must not change what a query returns.
func TestWithDeadlineHarmless(t *testing.T) {
	g := toyGraph(t)
	eng := simstar.NewEngine(g)
	ctx := context.Background()
	want, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.With(simstar.WithDeadline(time.Minute), simstar.WithCacheSize(-1)).
		SingleSource(ctx, simstar.MeasureGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scores[%d] changed under a deadline: %g vs %g", i, got[i], want[i])
		}
	}
}

// HasCertifiedPath must say yes exactly for the measures whose WithTolerance
// path produces MaxError certificates — the kernel table's rows, by name and
// by alias — and no for every other registered measure and unknown names.
func TestHasCertifiedPath(t *testing.T) {
	certified := map[string]bool{
		simstar.MeasureGeometric: true, simstar.MeasureGeometricMemo: true,
		simstar.MeasureExponential: true, simstar.MeasureExponentialMemo: true,
		simstar.MeasureRWR: true,
	}
	for _, name := range simstar.Names() {
		if got := simstar.HasCertifiedPath(name); got != certified[name] {
			t.Errorf("HasCertifiedPath(%q) = %v, want %v", name, got, certified[name])
		}
	}
	for _, alias := range []string{"iter-gsr*", "memo-esr*", "ppr", "GSimRank*"} {
		if !simstar.HasCertifiedPath(alias) {
			t.Errorf("HasCertifiedPath(%q) = false, want true", alias)
		}
	}
	if simstar.HasCertifiedPath("no-such-measure") {
		t.Error("HasCertifiedPath(\"no-such-measure\") = true, want false")
	}
}
