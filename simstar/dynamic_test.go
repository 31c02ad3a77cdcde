package simstar_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
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

func TestApplyEditsRejectsInvalid(t *testing.T) {
	eng := simstar.NewEngine(simstar.GraphFromEdges(2, [][2]int{{0, 1}}))
	base := eng.Graph()
	for _, bad := range []simstar.Edit{simstar.InsertEdge(-1, 0), simstar.InsertEdge(math.MaxInt32+1, 0)} {
		if _, err := eng.ApplyEdits(simstar.InsertEdge(1, 0), bad); err == nil {
			t.Fatalf("batch with %+v: want error", bad)
		}
		if eng.Epoch() != 0 || eng.Graph() != base {
			t.Fatalf("batch with %+v advanced the epoch or changed the graph", bad)
		}
	}
	// A rejected batch leaves nothing behind that a later valid one trips on.
	st, err := eng.ApplyEdits(simstar.InsertEdge(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || !eng.Graph().HasEdge(1, 0) {
		t.Fatalf("valid batch after rejections = %+v, want epoch 1 with edge 1→0", st)
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
