package simstar_test

import (
	"context"
	"strings"
	"testing"
	"time"

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
	// A traced one-query read counts once, under batch, like any other.
	traced := eng.BatchTopK(ctx, []simstar.Query{{Measure: simstar.MeasureGeometric, Node: 7, K: 4, Trace: &obs.Trace{}}})
	if traced[0].Err != nil {
		t.Fatal(traced[0].Err)
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
		`simstar_queries_total{kind="batch"}`:         4, // traced read + 3 batch slots
		`simstar_queries_total{kind="all_pairs"}`:     1,
		`simstar_cache_hits_total`:                    1,
	}
	for key, want := range wantCounts {
		if got := snap[key]; got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	// kind names the engine call, and there are exactly three of them.
	for key := range snap {
		if _, ok := wantCounts[key]; !ok && strings.HasPrefix(key, "simstar_queries_total{") {
			t.Errorf("unexpected query series %s", key)
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
	if parsed[`simstar_queries_total{kind="batch"}`] != 4 {
		t.Error("rendered exposition disagrees with snapshot")
	}
}

// stageSet returns the stages a trace recorded, failing on a negative span.
func stageSet(t *testing.T, tr *obs.Trace) map[string]bool {
	t.Helper()
	stages := make(map[string]bool)
	for _, sp := range tr.Spans {
		stages[sp.Stage] = true
		if sp.DurationUs < 0 {
			t.Fatalf("negative span duration: %+v", sp)
		}
	}
	return stages
}

// Query.Trace must stage the query lifecycle through MultiSource and
// BatchTopK and agree with the untraced APIs.
func TestTraceMultiSourceAndBatchTopK(t *testing.T) {
	g := dataset.RMATDefault(8, 4, 11)
	ctx := context.Background()
	eng := simstar.NewEngine(g)

	want, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng.PurgeCache()
	tr := &obs.Trace{}
	start := time.Now()
	res := eng.MultiSource(ctx, []simstar.Query{{Measure: "GSR*", Node: 9, Trace: tr}})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	tr.Finish(start)
	if j := firstBitDiff(res.Scores, want); j >= 0 {
		t.Fatalf("traced scores differ at %d", j)
	}
	if tr.Measure != simstar.MeasureGeometric || tr.Node != 9 || tr.Epoch != eng.Epoch() {
		t.Fatalf("trace identity wrong (want the canonical name and the served epoch): %+v", tr)
	}
	if tr.Cached || res.Cached || tr.Plan != "exact" {
		t.Fatalf("fresh query: cached=%v/%v plan=%q, want a kernel run", tr.Cached, res.Cached, tr.Plan)
	}
	stages := stageSet(t, tr)
	for _, stage := range []string{"plan", "cache", "kernel"} {
		if !stages[stage] {
			t.Errorf("trace missing %q span (got %v)", stage, tr.Spans)
		}
	}
	if stages["select"] || tr.K != 0 {
		t.Errorf("MultiSource trace carries top-k detail: K=%d spans=%v", tr.K, tr.Spans)
	}
	if tr.Kernel.Sweeps == 0 {
		t.Error("trace kernel detail missing sweep count")
	}
	if tr.TotalUs <= 0 {
		t.Error("trace missing total time")
	}

	// Second trace of the same query: a cache hit with no kernel stage.
	tr2 := &obs.Trace{}
	if res := eng.MultiSource(ctx, []simstar.Query{{Measure: simstar.MeasureGeometric, Node: 9, Trace: tr2}})[0]; res.Err != nil {
		t.Fatal(res.Err)
	}
	if !tr2.Cached || tr2.Plan != "cache" || tr2.Kernel.Sweeps != 0 || stageSet(t, tr2)["kernel"] {
		t.Fatalf("cached trace wrong: cached=%v plan=%q kernel=%+v spans=%v", tr2.Cached, tr2.Plan, tr2.Kernel, tr2.Spans)
	}

	wantTop, err := eng.TopK(ctx, simstar.MeasureRWR, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	trk := &obs.Trace{}
	top := eng.BatchTopK(ctx, []simstar.Query{{Measure: simstar.MeasureRWR, Node: 4, K: 5, Trace: trk}})[0]
	if top.Err != nil {
		t.Fatal(top.Err)
	}
	if !rankedSliceEqual(top.Top, wantTop) {
		t.Fatalf("traced BatchTopK %v, want %v", top.Top, wantTop)
	}
	if trk.K != 5 || !stageSet(t, trk)["select"] {
		t.Fatalf("BatchTopK trace: K=%d spans=%v, want K=5 and a select span", trk.K, trk.Spans)
	}

	// A traced duplicate receives a copy of the trace of the computation it
	// shares plus its own select span, whether or not the query that
	// computes is traced.
	for _, repTraced := range []bool{true, false} {
		eng.PurgeCache()
		var rep *obs.Trace
		if repTraced {
			rep = &obs.Trace{}
		}
		dup := &obs.Trace{}
		for i, r := range eng.BatchTopK(ctx, []simstar.Query{
			{Measure: simstar.MeasureGeometric, Node: 3, K: 2, Trace: rep},
			{Measure: "gsr*", Node: 3, K: 6, Trace: dup},
		}) {
			if r.Err != nil {
				t.Fatalf("query %d: %v", i, r.Err)
			}
		}
		var stages []string
		for _, sp := range dup.Spans {
			stages = append(stages, sp.Stage)
		}
		if dup.K != 6 || dup.Measure != simstar.MeasureGeometric || dup.Plan != "exact" || dup.Kernel.Sweeps == 0 ||
			strings.Join(stages, ",") != "plan,cache,kernel,select" {
			t.Fatalf("representative traced=%v: duplicate trace %+v, want the shared kernel run and K=6", repTraced, dup)
		}
		if repTraced && (rep.K != 2 || len(rep.Spans) != 4 || rep.Kernel != dup.Kernel || &rep.Spans[0] == &dup.Spans[0]) {
			t.Fatalf("representative trace %+v, want K=2, its own four spans and the duplicate's kernel detail", rep)
		}
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

	tr := &obs.Trace{}
	res := eng.MultiSource(ctx, []simstar.Query{{Measure: simstar.MeasureGeometric, Node: 2, Trace: tr}})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if tr.MaxError > tol || tr.MaxError != res.MaxError {
		t.Fatalf("trace MaxError %g, result %g, tolerance %g", tr.MaxError, res.MaxError, tol)
	}
	if tr.Plan != "sieved" {
		t.Errorf("approximate trace plan %q, want sieved", tr.Plan)
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
