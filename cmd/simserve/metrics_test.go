package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/simstar"
)

// scrape fetches /metrics and parses the exposition text; every scrape must
// be well-formed Prometheus text or the test dies on the spot.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := doJSON(t, h, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != prometheusContentType {
		t.Fatalf("/metrics content type %q, want %q", ct, prometheusContentType)
	}
	vals, err := obs.ParseText(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, rec.Body)
	}
	return vals
}

// The /metrics endpoint must account for every request by route, mirror the
// engine's query counters, and read the live graph state through the gauges.
func TestMetricsEndpointCountsRequests(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)

	single := json.RawMessage(`{"measure":"gsimrank*","label":"survey"}`)
	for i := 0; i < 2; i++ {
		if rec := doJSON(t, h, "POST", "/v1/query/single", single); rec.Code != http.StatusOK {
			t.Fatalf("single: %d: %s", rec.Code, rec.Body)
		}
	}
	if rec := doJSON(t, h, "POST", "/v1/query/topk", json.RawMessage(`{"measure":"rwr","label":"review","k":3}`)); rec.Code != http.StatusOK {
		t.Fatalf("topk: %d: %s", rec.Code, rec.Body)
	}
	if rec := doJSON(t, h, "POST", "/v1/query/topk", json.RawMessage(`{"measure":"gsimrank*","label":"review","k":3,"stream":true}`)); rec.Code != http.StatusOK {
		t.Fatalf("stream topk: %d: %s", rec.Code, rec.Body)
	}
	batch := json.RawMessage(`{"mode":"topk","queries":[{"measure":"gsimrank*","label":"survey","k":2},{"measure":"esimrank*","label":"review","k":2}]}`)
	if rec := doJSON(t, h, "POST", "/v1/query/batch", batch); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d: %s", rec.Code, rec.Body)
	}
	// A bad request must land in the error counter, not just the total.
	if rec := doJSON(t, h, "POST", "/v1/query/single", json.RawMessage(`{"measure":"gsimrank*","label":"nope"}`)); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad single: %d", rec.Code)
	}

	vals := scrape(t, h)
	wantRoutes := map[string]float64{
		`simserve_requests_total{route="graph"}`:        1,
		`simserve_requests_total{route="single"}`:       3,
		`simserve_requests_total{route="topk"}`:         2,
		`simserve_requests_total{route="batch"}`:        1,
		`simserve_request_errors_total{route="single"}`: 1,
	}
	for key, want := range wantRoutes {
		if got := vals[key]; got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	// Engine-side counters flow into the same registry: the single endpoint
	// serves through a one-element MultiSource and topk, streamed or not,
	// through a one-element BatchTopK. The server counts the stream itself.
	wantQueries := map[string]float64{
		`simstar_queries_total{kind="batch"}`:         2 + 1 + 1 + 2, // 2 single + 1 topk + 1 streamed topk + 2 batch slots
		`simstar_queries_total{kind="single_source"}`: 0,
		`simserve_streams_total`:                      1,
	}
	for key, want := range wantQueries {
		if got := vals[key]; got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	if vals[`simserve_request_seconds_count{route="single"}`] != 3 {
		t.Errorf("latency histogram count = %g, want 3", vals[`simserve_request_seconds_count{route="single"}`])
	}
	// The scrape observes itself mid-flight: exactly one request (the
	// /metrics GET rendering the snapshot) is in the gauge.
	if vals["simserve_inflight_requests"] != 1 {
		t.Errorf("inflight = %g during the scrape, want 1 (the scrape itself)", vals["simserve_inflight_requests"])
	}
	if vals["simserve_graph_loaded"] != 1 || vals["simserve_graph_nodes"] != 7 || vals["simserve_graph_edges"] != 9 {
		t.Errorf("graph gauges wrong: loaded=%g nodes=%g edges=%g",
			vals["simserve_graph_loaded"], vals["simserve_graph_nodes"], vals["simserve_graph_edges"])
	}
	if vals["simstar_kernel_seconds_count"] == 0 {
		t.Error("no kernel latencies observed through the served engine")
	}
}

// Query counters must be cumulative across graph swaps: a new engine shares
// the server's observer, only the per-engine cache stats reset.
func TestMetricsSurviveGraphSwap(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)
	single := json.RawMessage(`{"measure":"gsimrank*","label":"survey"}`)
	if rec := doJSON(t, h, "POST", "/v1/query/single", single); rec.Code != http.StatusOK {
		t.Fatalf("single: %d", rec.Code)
	}
	before := scrape(t, h)[`simstar_queries_total{kind="batch"}`]
	loadTestGraph(t, h) // swap in a fresh engine
	if rec := doJSON(t, h, "POST", "/v1/query/single", single); rec.Code != http.StatusOK {
		t.Fatalf("single after swap: %d", rec.Code)
	}
	after := scrape(t, h)[`simstar_queries_total{kind="batch"}`]
	if after != before+1 {
		t.Fatalf("query counter %g -> %g across a graph swap, want +1", before, after)
	}
}

// ?trace=1 must embed the per-query stage trace in every response shape:
// single, topk, request-level batch, and the NDJSON trailer of a stream.
func TestTraceParameter(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)

	plain := doJSON(t, h, "POST", "/v1/query/single", json.RawMessage(`{"measure":"gsimrank*","label":"survey"}`))
	var want singleResponse
	if err := json.Unmarshal(plain.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, h, "POST", "/v1/query/single?trace=1", json.RawMessage(`{"measure":"gsimrank*","label":"survey"}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("traced single: %d: %s", rec.Code, rec.Body)
	}
	var got singleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil {
		t.Fatal("traced single carries no trace")
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("traced scores length %d, want %d", len(got.Scores), len(want.Scores))
	}
	for i := range want.Scores {
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("traced scores differ at %d", i)
		}
	}
	stages := map[string]bool{}
	for _, sp := range got.Trace.Spans {
		stages[sp.Stage] = true
	}
	for _, stage := range []string{"plan", "cache"} {
		if !stages[stage] {
			t.Errorf("single trace missing %q span: %+v", stage, got.Trace.Spans)
		}
	}
	// The untraced request above warmed the cache, so the traced one hits.
	if !got.Trace.Cached || !got.Cached {
		t.Errorf("traced repeat query not served from cache: %+v", got.Trace)
	}

	rec = doJSON(t, h, "POST", "/v1/query/topk?trace=1", json.RawMessage(`{"measure":"rwr","label":"review","k":3}`))
	var topk topKResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &topk); err != nil {
		t.Fatal(err)
	}
	if topk.Trace == nil || topk.Trace.K != 3 {
		t.Fatalf("topk trace missing or wrong K: %+v", topk.Trace)
	}

	batch := json.RawMessage(`{"queries":[{"measure":"gsimrank*","label":"survey"},{"measure":"esimrank*","label":"review"}]}`)
	rec = doJSON(t, h, "POST", "/v1/query/batch?trace=1", batch)
	var br batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if br.Trace == nil || br.Trace.Queries != 2 || br.Trace.Node != -1 {
		t.Fatalf("batch trace missing or wrong shape: %+v", br.Trace)
	}
	if len(br.Trace.Spans) == 0 || br.Trace.Spans[0].Stage != "batch" {
		t.Fatalf("batch trace spans: %+v", br.Trace.Spans)
	}

	rec = doJSON(t, h, "POST", "/v1/query/topk?trace=1", json.RawMessage(`{"measure":"gsimrank*","label":"review","k":3,"stream":true}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("traced stream: %d: %s", rec.Code, rec.Body)
	}
	lines := ndjsonLines(t, rec.Body.String())
	trailer := lines[len(lines)-1]
	if trailer["done"] != true {
		t.Fatalf("stream trailer not done: %v", trailer)
	}
	tr, ok := trailer["trace"].(map[string]any)
	if !ok {
		t.Fatalf("stream trailer carries no trace: %v", trailer)
	}
	if tr["measure"] != "gsimrank*" {
		t.Errorf("stream trace measure = %v", tr["measure"])
	}
	// An untraced stream must keep its trailer lean.
	rec = doJSON(t, h, "POST", "/v1/query/topk", json.RawMessage(`{"measure":"gsimrank*","label":"review","k":3,"stream":true}`))
	lines = ndjsonLines(t, rec.Body.String())
	if _, has := lines[len(lines)-1]["trace"]; has {
		t.Error("untraced stream trailer carries a trace")
	}
}

// decodeRead returns what a query response says about its read: the cache
// outcome and, under ?trace=1, the stage trace — from the body of a
// materialised response, or from the header and trailer lines of a stream.
func decodeRead(t *testing.T, body []byte, stream bool) (bool, *obs.Trace) {
	t.Helper()
	if !stream {
		var resp struct {
			Cached bool       `json:"cached"`
			Trace  *obs.Trace `json:"trace"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Cached, resp.Trace
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var header streamHeaderJSON
	var trailer streamTrailerJSON
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done {
		t.Fatalf("stream not done: %s", body)
	}
	return header.Cached, trailer.Trace
}

// One HTTP read is one engine call, so it carries one name. However a read
// of one key is encoded or traced — top-k plain, traced, streamed or both,
// single plain or traced — it counts exactly once, under kind="batch", and
// every trace of it names the canonical measure (never the request's
// alias), the served epoch and a plan that agrees with its cache outcome.
// A kernel span appears only on a miss, and a streamed trace is the
// materialised one plus its "stream" stage.
func TestOneReadOneName(t *testing.T) {
	s, h := newTestServer(t)
	loadTestGraph(t, h)
	g := s.engine().Graph()
	pre, _ := g.NodeByLabel("preprint")
	clB, _ := g.NodeByLabel("classicB")

	const topk = `{"measure":"GSR*","label":"review","k":3}`
	const streamed = `{"measure":"GSR*","label":"review","k":3,"stream":true}`
	const single = `{"measure":"GSR*","label":"review"}`
	reads := []struct {
		name, path, body string
		stream, traced   bool
	}{
		{"topk", "/v1/query/topk", topk, false, false},
		{"topk traced", "/v1/query/topk?trace=1", topk, false, true},
		{"topk streamed", "/v1/query/topk", streamed, true, false},
		{"topk traced streamed", "/v1/query/topk?trace=1", streamed, true, true},
		{"single", "/v1/query/single", single, false, false},
		{"single traced", "/v1/query/single?trace=1", single, false, true},
	}
	var epoch uint64
	edits := 0
	// Round one edits before every read, so each read meets a fresh epoch
	// and misses; round two repeats the reads on the last epoch, all hits.
	for _, miss := range []bool{true, false} {
		var materialised []string // the traced top-k's stages this round
		for _, rd := range reads {
			if miss {
				op := "insert"
				if edits%2 == 1 {
					op = "delete"
				}
				edits++
				rec := doJSON(t, h, "POST", "/v1/edges", map[string]any{op: [][2]int{{pre, clB}}})
				var er editsResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusOK {
					t.Fatalf("edit: %d: %s", rec.Code, rec.Body)
				}
				epoch = er.Epoch
			}
			before := scrape(t, h)
			rec := doJSON(t, h, "POST", rd.path, json.RawMessage(rd.body))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d: %s", rd.name, rec.Code, rec.Body)
			}
			after := scrape(t, h)
			for _, kind := range []string{"single_source", "batch", "all_pairs"} {
				key := fmt.Sprintf("simstar_queries_total{kind=%q}", kind)
				want := 0.0
				if kind == "batch" {
					want = 1
				}
				if d := after[key] - before[key]; d != want {
					t.Errorf("%s: %s moved by %g, want %g", rd.name, key, d, want)
				}
			}
			cached, tr := decodeRead(t, rec.Body.Bytes(), rd.stream)
			if cached == miss {
				t.Fatalf("%s: cached = %v, want %v", rd.name, cached, !miss)
			}
			if (tr != nil) != rd.traced {
				t.Fatalf("%s: trace present = %v, want %v", rd.name, tr != nil, rd.traced)
			}
			if tr == nil {
				continue
			}
			if tr.Measure != simstar.MeasureGeometric || tr.Epoch != epoch || tr.Cached != cached {
				t.Errorf("%s: trace names %q at epoch %d, cached %v; want %q at epoch %d, cached %v",
					rd.name, tr.Measure, tr.Epoch, tr.Cached, simstar.MeasureGeometric, epoch, cached)
			}
			if (tr.Plan == "cache") != cached {
				t.Errorf("%s: plan %q with cached = %v", rd.name, tr.Plan, cached)
			}
			var stages []string
			for _, sp := range tr.Spans {
				stages = append(stages, sp.Stage)
			}
			if slices.Contains(stages, "kernel") == cached {
				t.Errorf("%s: stages %v with cached = %v", rd.name, stages, cached)
			}
			switch rd.name {
			case "topk traced":
				materialised = stages
			case "topk traced streamed":
				if want := append(slices.Clone(materialised), "stream"); !slices.Equal(stages, want) {
					t.Errorf("streamed trace stages %v, want the materialised %v plus stream", stages, materialised)
				}
			}
		}
	}
}

// /v1/stats must be schema-stable: the same keys in the no-graph and loaded
// states, with cumulative query counts from the shared observer.
func TestStatsSchemaStable(t *testing.T) {
	_, h := newTestServer(t)

	keysOf := func(rec string) map[string]bool {
		var m map[string]any
		if err := json.Unmarshal([]byte(rec), &m); err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for k := range m {
			keys[k] = true
		}
		return keys
	}
	empty := doJSON(t, h, "GET", "/v1/stats", nil)
	if empty.Code != http.StatusOK {
		t.Fatalf("stats without a graph: %d", empty.Code)
	}
	emptyKeys := keysOf(empty.Body.String())
	for _, k := range []string{"engine", "cache", "queries", "graph_loaded", "graph_loaded_ago_ms", "uptime_ms", "requests", "streams_aborted"} {
		if !emptyKeys[k] {
			t.Errorf("no-graph stats missing key %q", k)
		}
	}
	var st statsResponse
	if err := json.Unmarshal(empty.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.GraphLoaded || st.Engine.Nodes != 0 || st.Queries.SingleSource != 0 {
		t.Fatalf("no-graph stats not zero-valued: %+v", st)
	}

	loadTestGraph(t, h)
	if rec := doJSON(t, h, "POST", "/v1/query/single", json.RawMessage(`{"measure":"gsimrank*","label":"survey"}`)); rec.Code != http.StatusOK {
		t.Fatalf("single: %d", rec.Code)
	}
	if rec := doJSON(t, h, "POST", "/v1/query/topk", json.RawMessage(`{"measure":"gsimrank*","label":"review","k":3,"stream":true}`)); rec.Code != http.StatusOK {
		t.Fatalf("stream: %d", rec.Code)
	}
	loaded := doJSON(t, h, "GET", "/v1/stats", nil)
	loadedKeys := keysOf(loaded.Body.String())
	for k := range emptyKeys {
		if !loadedKeys[k] {
			t.Errorf("loaded stats dropped key %q", k)
		}
	}
	for k := range loadedKeys {
		if !emptyKeys[k] {
			t.Errorf("key %q appears only when a graph is loaded", k)
		}
	}
	if err := json.Unmarshal(loaded.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries.Batch == 0 || st.Queries.Stream != 1 {
		t.Fatalf("loaded stats query counts wrong: %+v", st.Queries)
	}
}

// Scraping /metrics while edits churn epochs and queries run concurrently
// must always parse, and the counters must be monotonic scrape over scrape.
// Run under -race this also proves the registry and the observer hooks are
// data-race free against the edit path.
func TestMetricsScrapeDuringChurn(t *testing.T) {
	_, h := newTestServer(t)
	loadTestGraph(t, h)

	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			body := json.RawMessage(fmt.Sprintf(`{"insert":[[%d,%d]]}`, i%5, (i+3)%7))
			doJSON(t, h, "POST", "/v1/edges", body)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			doJSON(t, h, "POST", "/v1/query/single", json.RawMessage(fmt.Sprintf(`{"measure":"gsimrank*","node":%d}`, i%7)))
			doJSON(t, h, "POST", "/v1/query/topk", json.RawMessage(fmt.Sprintf(`{"measure":"rwr","node":%d,"k":3,"stream":true}`, i%7)))
		}
	}()

	monotonic := []string{
		`simserve_requests_total{route="single"}`,
		`simserve_requests_total{route="edges"}`,
		`simstar_queries_total{kind="batch"}`,
		`simserve_streams_total`,
		"simstar_kernel_sweeps_total",
	}
	prev := map[string]float64{}
	for i := 0; i < rounds; i++ {
		vals := scrape(t, h) // dies if the exposition ever fails to parse
		for _, key := range monotonic {
			if vals[key] < prev[key] {
				t.Fatalf("%s went backwards: %g -> %g", key, prev[key], vals[key])
			}
			prev[key] = vals[key]
		}
	}
	wg.Wait()
	final := scrape(t, h)
	if got := final[`simserve_requests_total{route="single"}`]; got != rounds {
		t.Fatalf("single route counter = %g, want %d", got, rounds)
	}
	if got := final[`simserve_requests_total{route="edges"}`]; got != rounds {
		t.Fatalf("edges route counter = %g, want %d", got, rounds)
	}
}
