package simstar_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/simstar"
)

// randomEdges returns a seeded random edge list on n nodes.
func randomEdges(rng *rand.Rand, n, m int) [][2]int {
	edges := make([][2]int, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	return edges
}

// churn generates a mixed edit batch against the live edge set, keeping the
// set in sync so deletes hit existing edges and inserts genuinely add.
func churn(rng *rand.Rand, n int, set map[[2]int]bool, count int) []simstar.Edit {
	var present [][2]int
	for e := range set {
		present = append(present, e)
	}
	edits := make([]simstar.Edit, 0, count)
	for i := 0; i < count; i++ {
		if i%2 == 0 && len(present) > 0 {
			j := rng.Intn(len(present))
			e := present[j]
			present[j] = present[len(present)-1]
			present = present[:len(present)-1]
			delete(set, e)
			edits = append(edits, simstar.DeleteEdge(e[0], e[1]))
			continue
		}
		for {
			e := [2]int{rng.Intn(n), rng.Intn(n)}
			if !set[e] {
				set[e] = true
				edits = append(edits, simstar.InsertEdge(e[0], e[1]))
				break
			}
		}
	}
	return edits
}

// pooledAnswers runs query node q down every path that borrows pooled
// scratch — kernel workspaces, stream buffers and sweepers, exact and
// sieved — and returns each answer under the path's name.
func pooledAnswers(t *testing.T, eng *simstar.Engine, q int) map[string]any {
	t.Helper()
	ctx := context.Background()
	into, err := eng.SingleSourceInto(ctx, simstar.MeasureGeometric, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := eng.TopKStream(ctx, simstar.MeasureExponential, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []simstar.Ranked
	for r, ok := stream.Next(); ok; r, ok = stream.Next() {
		streamed = append(streamed, r)
	}
	sieved, err := eng.With(simstar.WithTolerance(1e-3)).SingleSource(ctx, simstar.MeasureGeometric, q)
	if err != nil {
		t.Fatal(err)
	}
	batch := eng.BatchTopK(ctx, []simstar.Query{
		{Measure: simstar.MeasureGeometric, Node: q, K: 5},
		{Measure: simstar.MeasureRWR, Node: 0, K: 5},
	})
	for _, r := range batch {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	parallel, err := eng.With(simstar.WithParallelSweeps(2)).SingleSource(ctx, simstar.MeasureRWR, q)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{
		"SingleSourceInto":    into,
		"TopKStream":          streamed,
		"WithTolerance":       sieved,
		"BatchTopK":           [][]simstar.Ranked{batch[0].Top, batch[1].Top},
		"WithParallelSweeps2": parallel,
	}
}

// The acceptance contract of the dynamic subsystem: after ApplyEdits, every
// registered measure must produce scores bitwise-identical — not merely
// within tolerance — to a from-scratch engine built on the mutated graph,
// through both the single-source and the all-pairs engine paths, and
// through every pooled path even though the edit grows the graph under
// pools still holding scratch of the old node count.
func TestApplyEditsBitwiseConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 40
	base := randomEdges(rng, n, 160)
	set := make(map[[2]int]bool)
	var dedup [][2]int
	for _, e := range base {
		if !set[e] {
			set[e] = true
			dedup = append(dedup, e)
		}
	}
	// Cache off, so every answer compared below comes from a kernel run.
	opts := []simstar.Option{simstar.WithC(0.6), simstar.WithK(4), simstar.WithCacheSize(-1)}
	eng := simstar.NewEngine(simstar.GraphFromEdges(n, dedup), opts...)
	pooledAnswers(t, eng, 7)

	edits := churn(rng, n, set, 12)
	edits = append(edits, simstar.InsertEdge(n+1, 0)) // and grow the graph
	stats, err := eng.ApplyEdits(edits...)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Refreshed || stats.Epoch != 1 {
		t.Fatalf("stats = %+v, want refreshed epoch 1", stats)
	}

	var mutated [][2]int
	for e := range set {
		mutated = append(mutated, e)
	}
	mutated = append(mutated, [2]int{n + 1, 0})
	fresh := simstar.NewEngine(simstar.GraphFromEdges(n+2, mutated), opts...)

	if eng.Graph().N() != fresh.Graph().N() || eng.Graph().M() != fresh.Graph().M() {
		t.Fatalf("graphs diverge: %d/%d vs %d/%d",
			eng.Graph().N(), eng.Graph().M(), fresh.Graph().N(), fresh.Graph().M())
	}
	for _, q := range []int{7, n + 1} {
		got, want := pooledAnswers(t, eng, q), pooledAnswers(t, fresh, q)
		for path := range want {
			if !reflect.DeepEqual(got[path], want[path]) {
				t.Errorf("%s(%d) after growth = %v, want %v (bitwise)", path, q, got[path], want[path])
			}
		}
	}
	ctx := context.Background()
	for _, name := range simstar.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			gotAll, err := eng.AllPairs(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			wantAll, err := fresh.AllPairs(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < gotAll.N(); i++ {
				for j := 0; j < gotAll.N(); j++ {
					if gotAll.At(i, j) != wantAll.At(i, j) {
						t.Fatalf("AllPairs(%d,%d) = %v, want %v (bitwise)", i, j, gotAll.At(i, j), wantAll.At(i, j))
					}
				}
			}
			for _, q := range []int{0, 7, n + 1} {
				got, err := eng.SingleSource(ctx, name, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.SingleSource(ctx, name, q)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("SingleSource(%d)[%d] = %v, want %v (bitwise)", q, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// A mutation must invalidate cached results: the same query before and after
// an edit that changes its answer returns different scores, with no stale
// cache hit in between.
func TestApplyEditsInvalidatesResultCache(t *testing.T) {
	ctx := context.Background()
	g := simstar.GraphFromEdges(4, [][2]int{{0, 2}, {1, 2}, {3, 1}})
	eng := simstar.NewEngine(g, simstar.WithK(4))

	before, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache and prove it hits on the same epoch.
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 0); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Hits == 0 {
		t.Fatal("expected a cache hit before the edit")
	}

	if _, err := eng.ApplyEdits(simstar.InsertEdge(3, 2)); err != nil {
		t.Fatal(err)
	}
	hitsBefore := eng.CacheStats().Hits
	after, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eng.CacheStats().Hits != hitsBefore {
		t.Fatal("post-edit query hit the cache: stale epoch served")
	}
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("scores unchanged by an edit that alters in-neighbourhoods")
	}
	// The mutated answer must now itself be cached (keyed on the new epoch).
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 0); err != nil {
		t.Fatal(err)
	}
	if eng.CacheStats().Hits != hitsBefore+1 {
		t.Fatal("new-epoch result not cached")
	}
}

// Engines derived through With share the store: an edit through one is
// visible to all, and each sees the bumped epoch.
func TestApplyEditsSharedAcrossWith(t *testing.T) {
	g := simstar.GraphFromEdges(3, [][2]int{{0, 1}})
	eng := simstar.NewEngine(g)
	alt := eng.With(simstar.WithK(9))
	if _, err := alt.ApplyEdits(simstar.InsertEdge(1, 2)); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 1 || alt.Epoch() != 1 {
		t.Fatalf("epochs = %d/%d, want 1/1", eng.Epoch(), alt.Epoch())
	}
	if !eng.Graph().HasEdge(1, 2) {
		t.Fatal("edit through With-derived engine invisible to parent")
	}
}

func TestEpochIntervalBuffersEdits(t *testing.T) {
	g := simstar.GraphFromEdges(3, [][2]int{{0, 1}})
	eng := simstar.NewEngine(g, simstar.WithEpochInterval(3))
	st, err := eng.ApplyEdits(simstar.InsertEdge(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Refreshed || st.Pending != 1 || eng.Epoch() != 0 {
		t.Fatalf("stats = %+v epoch %d, want buffered at epoch 0", st, eng.Epoch())
	}
	if eng.Graph().HasEdge(1, 2) {
		t.Fatal("pending edit visible before materialisation")
	}
	if snap := eng.Snapshot(); snap.Pending != 1 || snap.Epoch != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Refresh forces the epoch regardless of the interval.
	st, err = eng.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Refreshed || st.Epoch != 1 || !eng.Graph().HasEdge(1, 2) {
		t.Fatalf("refresh stats = %+v", st)
	}
}

func TestNoOpEditsKeepEpochAndCache(t *testing.T) {
	ctx := context.Background()
	g := simstar.GraphFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	eng := simstar.NewEngine(g)
	if _, err := eng.SingleSource(ctx, simstar.MeasureRWR, 0); err != nil {
		t.Fatal(err)
	}
	st, err := eng.ApplyEdits(simstar.InsertEdge(0, 1)) // already present
	if err != nil {
		t.Fatal(err)
	}
	if st.Refreshed || st.Epoch != 0 {
		t.Fatalf("no-op edit stats = %+v", st)
	}
	hits := eng.CacheStats().Hits
	if _, err := eng.SingleSource(ctx, simstar.MeasureRWR, 0); err != nil {
		t.Fatal(err)
	}
	if eng.CacheStats().Hits != hits+1 {
		t.Fatal("no-op edit needlessly invalidated the cache")
	}
}

// Compression stats must not flap to zero after a mutation: until the new
// epoch mines (lazily, on the first memo query), Stats carries the most
// recently mined epoch's figures forward.
func TestStatsCarryCompressionAcrossEdits(t *testing.T) {
	g := simstar.GraphFromEdges(6, [][2]int{{0, 2}, {1, 2}, {3, 2}, {0, 4}, {1, 4}, {3, 4}, {5, 0}})
	eng := simstar.NewEngine(g)
	base := eng.Stats()
	if base.CompressedEdges == 0 {
		t.Skip("toy graph mined no bicliques; carry-forward unobservable")
	}
	if _, err := eng.ApplyEdits(simstar.InsertEdge(5, 1)); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", st.Epoch)
	}
	if st.CompressedEdges != base.CompressedEdges || st.CompressionTime == 0 {
		t.Fatalf("compression stats flapped after edit: %+v vs base %+v", st, base)
	}
	// A memo query mines the new epoch; stats then describe it.
	if _, err := eng.AllPairs(context.Background(), simstar.MeasureGeometricMemo); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().CompressedEdges == 0 {
		t.Fatal("new epoch mined but stats empty")
	}
}

func TestApplyEditsRejectsInvalid(t *testing.T) {
	eng := simstar.NewEngine(simstar.GraphFromEdges(2, [][2]int{{0, 1}}))
	if _, err := eng.ApplyEdits(simstar.InsertEdge(-1, 0)); err == nil {
		t.Fatal("want error for negative id")
	}
	if eng.Epoch() != 0 {
		t.Fatal("rejected batch advanced the epoch")
	}
}

// Engine-level snapshot round trip: persist, warm-restart with the epoch
// resumed, and keep answering identically.
func TestEngineSnapshotWarmRestart(t *testing.T) {
	ctx := context.Background()
	eng := simstar.NewEngine(simstar.GraphFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}), simstar.WithK(4))
	if _, err := eng.ApplyEdits(simstar.InsertEdge(3, 0)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	written, err := eng.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if written.Epoch != 1 {
		t.Fatalf("WriteSnapshot reported epoch %d, want 1", written.Epoch)
	}
	g, epoch, err := simstar.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}
	warm := simstar.NewEngine(g, simstar.WithK(4), simstar.WithBaseEpoch(epoch))
	if warm.Epoch() != 1 {
		t.Fatalf("warm epoch = %d, want 1", warm.Epoch())
	}
	want, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.SingleSource(ctx, simstar.MeasureGeometric, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("warm-restart scores diverge at %d: %v != %v", i, got[i], want[i])
		}
	}
	// The restarted engine keeps versioning forward.
	st, err := warm.ApplyEdits(simstar.DeleteEdge(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 {
		t.Fatalf("epoch after restart edit = %d, want 2", st.Epoch)
	}
}

// Queries racing mutations: every query must answer coherently from some
// epoch while edits stream in. Run under -race in CI.
func TestQueriesRacingApplyEdits(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	const n = 30
	set := make(map[[2]int]bool)
	var edges [][2]int
	for _, e := range randomEdges(rng, n, 120) {
		if !set[e] {
			set[e] = true
			edges = append(edges, e)
		}
	}
	eng := simstar.NewEngine(simstar.GraphFromEdges(n, edges), simstar.WithK(3))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := (w*7 + i) % n
				res := eng.MultiSource(ctx, []simstar.Query{
					{Measure: simstar.MeasureGeometric, Node: q},
					{Measure: simstar.MeasureRWR, Node: (q + 1) % n},
				})
				for _, r := range res {
					if r.Err != nil {
						t.Errorf("query error under mutation: %v", r.Err)
						return
					}
					if len(r.Scores) < n {
						t.Errorf("torn score vector: len %d", len(r.Scores))
						return
					}
				}
			}
		}(w)
	}
	mrng := rand.New(rand.NewSource(6))
	for i := 0; i < 60; i++ {
		if _, err := eng.ApplyEdits(churn(mrng, n, set, 3)...); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// The acceptance benchmark: at ~1% edge churn, the incremental ApplyEdits
// refresh must beat tearing the engine down and rebuilding it from scratch
// on the mutated graph. The CI bench smoke runs this at -benchtime=1x.
func BenchmarkEngineRefreshVsRebuild(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	const n, m = 4000, 32000
	set := make(map[[2]int]bool)
	var edges [][2]int
	for _, e := range randomEdges(rng, n, m) {
		if !set[e] {
			set[e] = true
			edges = append(edges, e)
		}
	}
	base := simstar.GraphFromEdges(n, edges)
	batch := int(float64(len(edges)) * 0.01)

	b.Run("incremental-ApplyEdits", func(b *testing.B) {
		eng := simstar.NewEngine(base)
		crng := rand.New(rand.NewSource(34))
		cset := make(map[[2]int]bool, len(set))
		for e := range set {
			cset[e] = true
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			edits := churn(crng, n, cset, batch)
			b.StartTimer()
			if _, err := eng.ApplyEdits(edits...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		crng := rand.New(rand.NewSource(34))
		cset := make(map[[2]int]bool, len(set))
		for e := range set {
			cset[e] = true
		}
		g := base
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			churn(crng, n, cset, batch)
			var cur [][2]int
			for e := range cset {
				cur = append(cur, e)
			}
			b.StartTimer()
			g = simstar.GraphFromEdges(n, cur)
			simstar.NewEngine(g)
		}
	})
}
