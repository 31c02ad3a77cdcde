package simstar_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/simstar"
)

// First query computes (a miss), the identical repeat is served from the
// cache (a hit) — and byte-for-byte equal.
func TestCacheHitMiss(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(5))
	first, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.Size != 1 {
		t.Fatalf("after first query: %+v, want 1 miss, 0 hits, size 1", st)
	}
	second, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1)
	if err != nil {
		t.Fatal(err)
	}
	st = eng.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat: %+v, want 1 hit, 1 miss", st)
	}
	for j := range first {
		if first[j] != second[j] {
			t.Fatalf("cached result differs at %d: %g vs %g", j, first[j], second[j])
		}
	}
	// A different node, measure, or parameter set is a different key.
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SingleSource(ctx, simstar.MeasureRWR, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.With(simstar.WithK(2)).SingleSource(ctx, simstar.MeasureGeometric, 1); err != nil {
		t.Fatal(err)
	}
	st = eng.CacheStats()
	if st.Hits != 1 || st.Misses != 4 || st.Size != 4 {
		t.Fatalf("after distinct keys: %+v, want 1 hit, 4 misses, size 4", st)
	}
}

// The cache is size-bounded: old entries are evicted LRU-first.
func TestCacheEviction(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(5), simstar.WithCacheSize(2))
	for q := 0; q < 3; q++ {
		if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, q); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	if st.Size != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 inserts into capacity 2: %+v", st)
	}
	// Node 0 was evicted; nodes 1 and 2 are resident.
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats().Hits; got != 1 {
		t.Fatalf("resident entry was not a hit: %+v", eng.CacheStats())
	}
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 0); err != nil {
		t.Fatal(err)
	}
	st = eng.CacheStats()
	if st.Hits != 1 || st.Evictions != 2 {
		t.Fatalf("evicted entry was served as a hit: %+v", st)
	}
}

// WithCacheSize(-1) disables the cache entirely.
func TestCacheDisabled(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(5), simstar.WithCacheSize(-1))
	for i := 0; i < 3; i++ {
		if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.CacheStats(); st != (simstar.CacheStats{}) {
		t.Fatalf("disabled cache reports activity: %+v", st)
	}
}

// Engines derived with With share the cache, so a With(K=2) answer warms the
// cache for any other engine view asking the same question.
func TestCacheSharedAcrossWith(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(5))
	if _, err := eng.With(simstar.WithK(2)).SingleSource(ctx, simstar.MeasureGeometric, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.With(simstar.WithK(2)).SingleSource(ctx, simstar.MeasureGeometric, 1); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("With-derived engines do not share the cache: %+v", st)
	}
}

// Worker count and cache capacity are serving knobs: they must not split the
// cache key space.
func TestCacheKeyIgnoresServingKnobs(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(5))
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.With(simstar.WithWorkers(3)).SingleSource(ctx, simstar.MeasureGeometric, 1); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Hits != 1 {
		t.Fatalf("WithWorkers changed the cache key: %+v", st)
	}
}

// namedConstant is constantMeasure under a registrable name, so the
// registry conformance sweep (which asserts Name() matches the key) stays
// happy with test registrations from this file.
type namedConstant struct {
	constantMeasure
	name string
}

func (m namedConstant) Name() string { return m.name }

// Re-registering a measure name must invalidate cached results for it: the
// registry generation is part of the key.
func TestCacheInvalidatedByRegistryOverride(t *testing.T) {
	const name = "test-cache-gen"
	simstar.RegisterForTest(t, name, func(opts ...simstar.Option) simstar.Measure {
		return namedConstant{name: name}
	})
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g)
	if _, err := eng.SingleSource(ctx, name, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SingleSource(ctx, name, 0); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Hits != 1 {
		t.Fatalf("warm-up did not hit: %+v", st)
	}
	simstar.RegisterForTest(t, name, func(opts ...simstar.Option) simstar.Measure {
		return namedConstant{name: name}
	})
	if _, err := eng.SingleSource(ctx, name, 0); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("re-registration served a stale cache entry: %+v", st)
	}
}

// PurgeCache empties the cache and resets the counters.
// Counter coherence under churn: with queries, PurgeCache and ApplyEdits
// (epoch hot-swap) racing, the shared Observer's cache counters must be
// monotone — every lookup counted exactly once, never lost to a purge or a
// swap, never double-counted — while CacheStats may reset (purge zeroes it
// by documented contract) but must always read a coherent snapshot. Run
// under -race in CI.
func TestCacheCountersUnderPurgeChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 40
	edges := randomEdges(rng, n, 200)
	set := make(map[[2]int]bool)
	var dedup [][2]int
	for _, e := range edges {
		if !set[e] {
			set[e] = true
			dedup = append(dedup, e)
		}
	}
	o := simstar.NewObserver(nil)
	eng := simstar.NewEngine(simstar.GraphFromEdges(n, dedup),
		simstar.WithK(3), simstar.WithObserver(o))
	// The registry hands back the very counters the engine increments.
	hits := o.Registry().Counter("simstar_cache_hits_total",
		"Single-source result-cache hits, exact-donor hits included.")
	misses := o.Registry().Counter("simstar_cache_misses_total",
		"Single-source result-cache misses.")

	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Monitor: observer counters never go backwards, and each snapshot of
	// CacheStats is internally coherent.
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		var lastHits, lastMisses uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			h, m := hits.Value(), misses.Value()
			if h < lastHits || m < lastMisses {
				t.Errorf("observer counters went backwards: hits %d->%d misses %d->%d",
					lastHits, h, lastMisses, m)
				return
			}
			lastHits, lastMisses = h, m
			st := eng.CacheStats()
			if st.Size < 0 || (st.Capacity > 0 && st.Size > st.Capacity) {
				t.Errorf("incoherent CacheStats snapshot: %+v", st)
				return
			}
		}
	}()

	// Queriers: a mix guaranteed to produce both hits and misses.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				m := simstar.MeasureGeometric
				if i%2 == 1 {
					m = simstar.MeasureRWR
				}
				if _, err := eng.SingleSource(ctx, m, rng.Intn(8)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(7 + r))
	}

	// Purger and editor: churn the cache and hot-swap epochs underneath.
	wg.Add(1)
	go func() {
		defer wg.Done()
		editRng := rand.New(rand.NewSource(77))
		for i := 0; i < 30; i++ {
			eng.PurgeCache()
			if i%5 == 4 {
				if _, err := eng.ApplyEdits(churn(editRng, n, set, 4)...); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Wait for workers, then stop the monitor.
	wg.Wait()
	close(stop)
	monitor.Wait()

	// Every lookup of the run is in the observer exactly once; the cache's
	// own stats cover at most the lookups since the last purge.
	h, m := hits.Value(), misses.Value()
	if h+m < 3*150 {
		t.Fatalf("observer lost lookups: hits+misses = %d, want >= %d", h+m, 3*150)
	}
	st := eng.CacheStats()
	if st.Hits+st.Misses > h+m {
		t.Fatalf("cache stats (%d lookups) exceed observer totals (%d)", st.Hits+st.Misses, h+m)
	}
}

func TestCachePurge(t *testing.T) {
	g := toyGraph(t)
	ctx := context.Background()
	eng := simstar.NewEngine(g, simstar.WithK(5))
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 0); err != nil {
		t.Fatal(err)
	}
	eng.PurgeCache()
	st := eng.CacheStats()
	if st.Size != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("after purge: %+v", st)
	}
	if _, err := eng.SingleSource(ctx, simstar.MeasureGeometric, 0); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("purged entry still resident: %+v", st)
	}
}
