package main

import (
	"encoding/json"
	"math"
	"net/http"
	"testing"
)

// loadApproxTestGraph loads an unlabelled random-ish graph big enough for
// the sieve to actually drop mass.
func loadApproxTestGraph(t *testing.T, h http.Handler) {
	t.Helper()
	edges := make([][2]int, 0, 180)
	// Deterministic pseudo-random low-degree wiring (no RNG needed).
	for u := 0; u < 60; u++ {
		for d := 1; d <= 3; d++ {
			edges = append(edges, [2]int{u, (u*7 + d*13) % 60})
		}
	}
	rec := doJSON(t, h, "POST", "/v1/graph", map[string]any{
		"edges":   edges,
		"options": map[string]any{"c": 0.6, "k": 5},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("load graph: status %d: %s", rec.Code, rec.Body)
	}
}

// A single query with a tolerance must answer with a certificate within the
// tolerance, and the certificate must actually bound the deviation from the
// exact answer to the same query.
func TestSingleQueryTolerance(t *testing.T) {
	_, h := newTestServer(t)
	loadApproxTestGraph(t, h)

	// Approximate first, so the request actually exercises the sieved path
	// (a cached exact result would legitimately serve it with maxError 0).
	var approxResp singleResponse
	rec := doJSON(t, h, "POST", "/v1/query/single", map[string]any{
		"measure": "gsimrank*", "node": 1, "tolerance": 1e-4,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("approx query: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &approxResp); err != nil {
		t.Fatal(err)
	}
	if approxResp.MaxError <= 0 || approxResp.MaxError > 1e-4 {
		t.Fatalf("approx maxError %g outside (0, 1e-4]", approxResp.MaxError)
	}

	var exactResp singleResponse
	rec = doJSON(t, h, "POST", "/v1/query/single", map[string]any{
		"measure": "gsimrank*", "node": 1,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("exact query: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &exactResp); err != nil {
		t.Fatal(err)
	}
	if exactResp.MaxError != 0 {
		t.Fatalf("exact query reported maxError %g", exactResp.MaxError)
	}
	if exactResp.Cached {
		t.Fatal("exact query must not be served from the approximate entry")
	}
	if len(approxResp.Scores) != len(exactResp.Scores) {
		t.Fatalf("score lengths differ: %d vs %d", len(approxResp.Scores), len(exactResp.Scores))
	}
	for i := range exactResp.Scores {
		if diff := math.Abs(approxResp.Scores[i] - exactResp.Scores[i]); diff > approxResp.MaxError {
			t.Fatalf("node %d: |approx−exact| = %g exceeds maxError %g", i, diff, approxResp.MaxError)
		}
	}

	// Re-asking with the same tolerance re-serves the approximate entry and
	// its original certificate.
	var again singleResponse
	rec = doJSON(t, h, "POST", "/v1/query/single", map[string]any{
		"measure": "gsimrank*", "node": 1, "tolerance": 1e-4,
	})
	if err := json.Unmarshal(rec.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.MaxError != approxResp.MaxError {
		t.Fatalf("repeat approx query: cached=%v maxError=%g, want cached with %g",
			again.Cached, again.MaxError, approxResp.MaxError)
	}

	// A node cached only exactly serves an approximate request from the
	// exact donor entry: cached, certificate 0.
	rec = doJSON(t, h, "POST", "/v1/query/single", map[string]any{
		"measure": "gsimrank*", "node": 9,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("exact warmup: status %d: %s", rec.Code, rec.Body)
	}
	var donor singleResponse
	rec = doJSON(t, h, "POST", "/v1/query/single", map[string]any{
		"measure": "gsimrank*", "node": 9, "tolerance": 1e-4,
	})
	if err := json.Unmarshal(rec.Body.Bytes(), &donor); err != nil {
		t.Fatal(err)
	}
	if !donor.Cached || donor.MaxError != 0 {
		t.Fatalf("donor-served approx query: cached=%v maxError=%g, want cached exact", donor.Cached, donor.MaxError)
	}

	// Under options.sieve a tolerance query's scores lie within its
	// maxError of the exact query's, sieve and all.
	var sieved, exactSieved singleResponse
	for _, c := range []struct {
		resp  *singleResponse
		query map[string]any
	}{
		{&sieved, map[string]any{"measure": "gsimrank*", "node": 2, "tolerance": 1e-6, "options": map[string]any{"sieve": 1e-2}}},
		{&exactSieved, map[string]any{"measure": "gsimrank*", "node": 2, "options": map[string]any{"sieve": 1e-2}}},
	} {
		rec = doJSON(t, h, "POST", "/v1/query/single", c.query)
		if err := json.Unmarshal(rec.Body.Bytes(), c.resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("sieve query %v: %d %v: %s", c.query, rec.Code, err, rec.Body)
		}
	}
	for i := range exactSieved.Scores {
		if diff := math.Abs(sieved.Scores[i] - exactSieved.Scores[i]); diff > sieved.MaxError {
			t.Fatalf("node %d: sieve with tolerance off the exact query by %g, maxError %g", i, diff, sieved.MaxError)
		}
	}
}

// The nested options.tolerance spelling must behave identically to the
// top-level shorthand, and the explicit options field must win when both
// are given.
func TestToleranceOptionSpellings(t *testing.T) {
	_, h := newTestServer(t)
	loadApproxTestGraph(t, h)

	var viaOptions singleResponse
	rec := doJSON(t, h, "POST", "/v1/query/single", map[string]any{
		"measure": "rwr", "node": 2, "options": map[string]any{"tolerance": 1e-3},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("options.tolerance: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &viaOptions); err != nil {
		t.Fatal(err)
	}
	if viaOptions.MaxError <= 0 || viaOptions.MaxError > 1e-3 {
		t.Fatalf("options.tolerance maxError %g outside (0, 1e-3]", viaOptions.MaxError)
	}

	var both singleResponse
	rec = doJSON(t, h, "POST", "/v1/query/single", map[string]any{
		"measure": "rwr", "node": 2,
		"tolerance": 1e-8, // overridden by the explicit options field below
		"options":   map[string]any{"tolerance": 1e-3},
	})
	if err := json.Unmarshal(rec.Body.Bytes(), &both); err != nil {
		t.Fatal(err)
	}
	if !both.Cached || both.MaxError != viaOptions.MaxError {
		t.Fatalf("options.tolerance should win: cached=%v maxError=%g, want cache hit with %g",
			both.Cached, both.MaxError, viaOptions.MaxError)
	}
}

// TopK and batch responses must carry the certificate too.
func TestTopKAndBatchTolerance(t *testing.T) {
	_, h := newTestServer(t)
	loadApproxTestGraph(t, h)

	var topResp topKResponse
	rec := doJSON(t, h, "POST", "/v1/query/topk", map[string]any{
		"measure": "esimrank*", "node": 3, "k": 5, "tolerance": 1e-4,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("topk: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &topResp); err != nil {
		t.Fatal(err)
	}
	if len(topResp.Top) != 5 {
		t.Fatalf("topk returned %d entries", len(topResp.Top))
	}
	if topResp.MaxError <= 0 || topResp.MaxError > 1e-4 {
		t.Fatalf("topk maxError %g outside (0, 1e-4]", topResp.MaxError)
	}

	var batchResp batchResponse
	rec = doJSON(t, h, "POST", "/v1/query/batch", map[string]any{
		"queries": []map[string]any{
			{"measure": "gsimrank*", "node": 4, "tolerance": 1e-4},
			{"measure": "gsimrank*", "node": 5},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &batchResp); err != nil {
		t.Fatal(err)
	}
	if len(batchResp.Results) != 2 {
		t.Fatalf("batch returned %d results", len(batchResp.Results))
	}
	if e := batchResp.Results[0].MaxError; e <= 0 || e > 1e-4 {
		t.Fatalf("approximate batch query maxError %g outside (0, 1e-4]", e)
	}
	if e := batchResp.Results[1].MaxError; e != 0 {
		t.Fatalf("exact batch query maxError %g, want 0", e)
	}
}
