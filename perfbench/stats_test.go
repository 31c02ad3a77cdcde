package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {90, 4.6}, {100, 5}, {25, 2}, {99, 4.96},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample p90 = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples must give NaN")
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("even median = %v", got)
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 4, 7.75}, 2.375, 8.375},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestBlockStats(t *testing.T) {
	// 250 reads one ms apart: the first block's latencies are 1..100, the
	// short remainder of 50 joins the second block, all of whose reads take
	// 1 ms; a failed read's latency is left out.
	var reads []sample
	for i := 0; i < 250; i++ {
		lat := 1.0
		if i < blockReads {
			lat = float64(i + 1)
		}
		reads = append(reads, sample{start: float64(i), lat: lat, read: true, ok: true})
	}
	reads[140] = sample{start: 140, lat: 1e6, read: true}
	p50, p90, rate := blockStats(reads, 400)
	if len(p50) != 2 || !near(p50[0], 50.5) || !near(p90[0], 90.1) || p50[1] != 1 || p90[1] != 1 {
		t.Errorf("p50 %v, p90 %v; want [50.5 1], [90.1 1]", p50, p90)
	}
	// 100 requests in 100 ms, then 150 in the 300 ms left of the phase.
	if len(rate) != 2 || !near(rate[0], 1000) || !near(rate[1], 500) {
		t.Errorf("rates %v, want [1000 500]", rate)
	}

	// A write before every read: writes ride in the block they fall in,
	// the first block starts at the phase's first request, and the blocks'
	// times add up to the phase.
	var mixed []sample
	for i := 0; i < 400; i++ {
		mixed = append(mixed, sample{start: float64(i), lat: 0.5, read: i%2 == 1, ok: true})
	}
	_, _, rate = blockStats(mixed, 400)
	if len(rate) != 2 || !near(rate[0], 1000) || !near(rate[1], 1000) {
		t.Errorf("rates with writes %v, want [1000 1000]", rate)
	}

	// Fewer reads than a block: one block of everything.
	p50, _, _ = blockStats(reads[:30], 30)
	if len(p50) != 1 || !near(p50[0], 15.5) {
		t.Errorf("short run p50 %v, want [15.5]", p50)
	}
}

func TestSelfTimes(t *testing.T) {
	// request(1000) → server(900) → kernel(600), select(200); a second
	// root with no children keeps its whole duration.
	spans := []span{
		{ID: 1, Name: "topk", Dur: 1000},
		{ID: 2, Parent: 1, Name: "server", Dur: 900},
		{ID: 3, Parent: 2, Name: "kernel", Dur: 600},
		{ID: 4, Parent: 2, Name: "select", Dur: 200},
		{ID: 5, Name: "edit", Dur: 50},
	}
	want := map[int]float64{1: 100, 2: 100, 3: 600, 4: 200, 5: 50}
	got := selfTimes(spans)
	for id, w := range want {
		if !near(got[id], w) {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestPlanRoutes(t *testing.T) {
	got := planRoutes("blocked b=3 chunk=8; blocked b=3 chunk=8; fanout b=2; sieved b=4 chunk=2 sat=false")
	want := map[string]int{"blocked": 2, "fanout": 1, "sieved": 1}
	if len(got) != len(want) {
		t.Fatalf("routes = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("routes[%s] = %d, want %d", k, got[k], v)
		}
	}
	for _, plan := range []string{"", "cache", "exact"} {
		r := planRoutes(plan)
		if r["blocked"] != 0 || r["fanout"] != 0 {
			t.Errorf("single-query plan %q counted as batch routes: %v", plan, r)
		}
	}
}

func TestParsePrometheus(t *testing.T) {
	text := `# HELP simserve_request_seconds HTTP request latency in seconds, by route.
# TYPE simserve_request_seconds histogram
simserve_request_seconds_bucket{route="topk",le="0.001"} 3
simserve_request_seconds_sum{route="topk"} 0.0125
simserve_request_seconds_count{route="topk"} 5
simstar_kernel_seconds_sum 1.5
`
	m, err := parsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m[`simserve_request_seconds_sum{route="topk"}`] != 0.0125 || m["simstar_kernel_seconds_sum"] != 1.5 {
		t.Fatalf("parsed %v", m)
	}
	a := scrape{metrics: map[string]float64{}}
	b := scrape{metrics: m}
	if got := histMean(a, b, "simserve_request_seconds", `{route="topk"}`); !near(got, 2.5) {
		t.Errorf("histMean = %v ms, want 2.5", got)
	}
}

// The metrics the program prints must be exactly the ones BENCHMARK.json
// declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	pu := &phaseOut{setups: []time.Duration{time.Second}, wall: time.Second, results: []result{{}}}
	e2e := endToEnd([]op{{Kind: opTopK, Phase: phaseTimed}}, pu)
	if len(e2e) != len(b.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, BENCHMARK.json declares %d", len(e2e), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: program has %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
	if len(layerUnits) != len(b.PerLayer) {
		t.Errorf("program prints %d per-layer metrics, BENCHMARK.json declares %d", len(layerUnits), len(b.PerLayer))
	}
	for _, m := range b.PerLayer {
		if got, ok := layerUnits[m.Name]; !ok || got != m.Unit {
			t.Errorf("per-layer %s: program unit %q, want %q", m.Name, got, m.Unit)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(string(raw), `"name": "`+w.name+`"`) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
}
