package simstar_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/simstar"
)

// The observer must see every query kind, the cache outcomes and the kernel
// work — and observation must never change what a query returns.
func TestObserverCountsQueries(t *testing.T) {
	g := dataset.RMATDefault(8, 4, 7) // 256 nodes
	ctx := context.Background()
	o := simstar.NewObserver(nil)
	eng := simstar.NewEngine(g, simstar.WithObserver(o))
	plain := simstar.NewEngine(g)

	if eng.Metrics() != o {
		t.Fatal("Metrics did not return the configured observer")
	}
	if plain.Metrics() != nil {
		t.Fatal("unobserved engine reports a non-nil observer")
	}

	want, err := plain.SingleSource(ctx, simstar.MeasureGeometric, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("observed scores differ at %d: %g vs %g", i, got[i], want[i])
		}
	}
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 3); err != nil {
		t.Fatal(err) // cache hit
	}
	if _, err := eng.TopK(ctx, simstar.MeasureRWR, 5, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TopKStream(ctx, simstar.MeasureGeometric, 7, 4); err != nil {
		t.Fatal(err)
	}
	res := eng.BatchTopK(ctx, []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: 1, K: 3},
		{Measure: simstar.MeasureExponential, Node: 2, K: 3},
		{Measure: simstar.MeasureSimRank, Node: 3, K: 3}, // fan-out path
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("batch query %d: %v", i, r.Err)
		}
	}
	if _, err := eng.AllPairs(ctx, simstar.MeasureRWR); err != nil {
		t.Fatal(err)
	}

	snap := o.Registry().Snapshot()
	wantCounts := map[string]float64{
		`simstar_queries_total{kind="single_source"}`: 3, // 2 SingleSource + TopK
		`simstar_queries_total{kind="stream"}`:        1,
		`simstar_queries_total{kind="batch"}`:         3,
		`simstar_queries_total{kind="all_pairs"}`:     1,
		`simstar_cache_hits_total`:                    1,
	}
	for key, want := range wantCounts {
		if got := snap[key]; got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	if snap["simstar_cache_misses_total"] < 5 {
		t.Errorf("cache misses = %g, want >= 5", snap["simstar_cache_misses_total"])
	}
	if snap["simstar_kernel_sweeps_total"] == 0 {
		t.Error("no kernel sweeps recorded")
	}
	if snap["simstar_kernel_seconds_count"] == 0 {
		t.Error("no kernel latencies observed")
	}
	if snap["simstar_workspace_pool_misses_total"] == 0 {
		t.Error("no workspace pool misses recorded despite a cold pool")
	}

	// The registry must render parseable exposition text.
	var sb strings.Builder
	if err := o.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if parsed[`simstar_queries_total{kind="batch"}`] != 3 {
		t.Error("rendered exposition disagrees with snapshot")
	}
}

// Traces must stage the query lifecycle and agree with the untraced APIs.
func TestTraceSingleSourceAndTopK(t *testing.T) {
	g := dataset.RMATDefault(8, 4, 11)
	ctx := context.Background()
	eng := simstar.NewEngine(g)

	want, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng.PurgeCache()
	scores, tr, err := eng.TraceSingleSource(ctx, simstar.MeasureGeometric, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if scores[i] != want[i] {
			t.Fatalf("traced scores differ at %d", i)
		}
	}
	if tr.Measure != simstar.MeasureGeometric || tr.Node != 9 {
		t.Fatalf("trace identity wrong: %+v", tr)
	}
	if tr.Cached {
		t.Fatal("fresh query reported cached")
	}
	stages := make(map[string]bool)
	for _, sp := range tr.Spans {
		stages[sp.Stage] = true
		if sp.DurationUs < 0 {
			t.Fatalf("negative span duration: %+v", sp)
		}
	}
	for _, stage := range []string{"plan", "cache", "kernel"} {
		if !stages[stage] {
			t.Errorf("trace missing %q span (got %v)", stage, tr.Spans)
		}
	}
	if tr.Kernel.Sweeps == 0 {
		t.Error("trace kernel detail missing sweep count")
	}
	if tr.TotalUs <= 0 {
		t.Error("trace missing total time")
	}

	// Second trace of the same query: a cache hit with no kernel stage.
	_, tr2, err := eng.TraceSingleSource(ctx, simstar.MeasureGeometric, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.Cached || tr2.Kernel.Sweeps != 0 {
		t.Fatalf("cached trace wrong: cached=%v kernel=%+v", tr2.Cached, tr2.Kernel)
	}

	wantTop, err := eng.TopK(ctx, simstar.MeasureRWR, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	top, trk, err := eng.TraceTopK(ctx, simstar.MeasureRWR, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != len(wantTop) {
		t.Fatalf("traced TopK returned %d entries, want %d", len(top), len(wantTop))
	}
	for i := range wantTop {
		if top[i] != wantTop[i] {
			t.Fatalf("traced TopK disagrees at %d: %+v vs %+v", i, top[i], wantTop[i])
		}
	}
	if trk.K != 5 {
		t.Fatalf("TopK trace K = %d", trk.K)
	}
	found := false
	for _, sp := range trk.Spans {
		if sp.Stage == "select" {
			found = true
		}
	}
	if !found {
		t.Errorf("TopK trace missing select span: %v", trk.Spans)
	}
}

// Sieved-approximate queries must surface their frontier and certificate
// detail through the trace and their spend through the observer.
func TestTraceApproximateKernelDetail(t *testing.T) {
	g := dataset.RMATDefault(9, 4, 3)
	ctx := context.Background()
	o := simstar.NewObserver(nil)
	const tol = 1e-3
	eng := simstar.NewEngine(g, simstar.WithObserver(o), simstar.WithTolerance(tol))

	_, tr, err := eng.TraceSingleSource(ctx, simstar.MeasureGeometric, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxError > tol {
		t.Fatalf("MaxError %g exceeds tolerance %g", tr.MaxError, tol)
	}
	if tr.Kernel.FrontierMax == 0 {
		t.Error("approximate trace missing frontier width")
	}
	if tr.Kernel.SievePoints == 0 {
		t.Error("approximate trace missing sieve points")
	}
	if tr.Kernel.Certificate != tr.MaxError {
		t.Errorf("kernel certificate %g != MaxError %g", tr.Kernel.Certificate, tr.MaxError)
	}
	snap := o.Registry().Snapshot()
	if snap["simstar_sieve_spend_total"] <= 0 {
		t.Error("observer recorded no sieve spend")
	}
}

// Counters must follow graph epochs: the refreshed state's pool reports
// into the same observer, and queries keep counting after ApplyEdits.
func TestObserverSurvivesEpochs(t *testing.T) {
	g := dataset.RMATDefault(7, 4, 5)
	ctx := context.Background()
	o := simstar.NewObserver(nil)
	eng := simstar.NewEngine(g, simstar.WithObserver(o))
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1); err != nil {
		t.Fatal(err)
	}
	before := o.Registry().Snapshot()[`simstar_queries_total{kind="single_source"}`]
	if _, err := eng.ApplyEdits(simstar.InsertEdge(0, 1), simstar.DeleteEdge(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1); err != nil {
		t.Fatal(err)
	}
	after := o.Registry().Snapshot()[`simstar_queries_total{kind="single_source"}`]
	if after != before+1 {
		t.Fatalf("single_source count %g -> %g across an epoch, want +1", before, after)
	}
}

// The zero-alloc serving contract must hold with the observer ON: the
// kernel trace borrows the pooled workspace's scratch and every counter
// update is a bare atomic.
func TestObservedSingleSourceIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts are not meaningful")
	}
	g := dataset.RMATDefault(9, 4, 13)
	ctx := context.Background()
	o := simstar.NewObserver(nil)
	eng := simstar.NewEngine(g, simstar.WithObserver(o), simstar.WithCacheSize(-1))
	buf := make([]float64, g.N())
	for _, measure := range []string{simstar.MeasureGeometric, simstar.MeasureExponential, simstar.MeasureRWR} {
		if _, err := eng.SingleSourceInto(ctx, measure, 0, buf); err != nil {
			t.Fatal(err)
		}
		q := 0
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if _, err = eng.SingleSourceInto(ctx, measure, q%g.N(), buf); err != nil {
				t.Fatal(err)
			}
			q++
		})
		// Same slack as the unobserved test: a GC can empty the sync.Pool
		// mid-measurement; one full alloc per run is a real regression.
		if allocs >= 1 {
			t.Fatalf("%s: %v allocs/op on the observed pooled path", measure, allocs)
		}
	}
	if o.Registry().Snapshot()["simstar_kernel_sweeps_total"] == 0 {
		t.Fatal("observed Into path recorded no sweeps")
	}
}
