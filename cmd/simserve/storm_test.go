package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/simstar"
)

// The storm's shape (see TestServeStorm).
const (
	stormNodes     = 2_000
	stormClients   = 8
	stormOpsEach   = 60 // 480 ops in all
	stormK         = 10
	stormBatch     = 8
	stormTolerance = 1e-3
	stormAudits    = 24
)

var stormMeasures = []string{simstar.MeasureGeometric, simstar.MeasureRWR, simstar.MeasureExponential}

// stormEdges is perfbench's reference-graph generator at 2,000 nodes and
// degree 4: each node links to four of its next 64 neighbours, behind a
// seeded id permutation.
func stormEdges() [][2]int {
	rng := rand.New(rand.NewSource(271828))
	shuf := rng.Perm(stormNodes)
	edges := make([][2]int, 0, 4*stormNodes)
	for u := range stormNodes {
		for range 4 {
			edges = append(edges, [2]int{shuf[u], shuf[(u+1+rng.Intn(64))%stormNodes]})
		}
	}
	return edges
}

// stormOp is one request: the instrumented route it hits and its query, or
// its queries for a batch.
type stormOp struct {
	route string
	q     queryJSON
	batch []queryJSON
}

// stormOps draws one client's ops: single 25%, top-k 25%, streamed top-k
// 20%, batch 15% and tolerance 15%, on zipfian nodes. Every fifth op that
// is a single or tolerance read carries deadlineMS.
func stormOps(seed int64, deadlineMS int) []stormOp {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, stormNodes-1)
	node := func() *int { n := int(zipf.Uint64()); return &n }
	ops := make([]stormOp, stormOpsEach)
	for i := range ops {
		op := stormOp{route: "topk", q: queryJSON{Measure: stormMeasures[rng.Intn(len(stormMeasures))], Node: node()}}
		switch r := rng.Intn(20); {
		case r < 5:
			op.route = "single"
		case r < 10:
			op.q.K = stormK
		case r < 14:
			op.q.K, op.q.Stream = stormK, true
		case r < 17:
			op.route = "batch"
			for j := range stormBatch {
				op.batch = append(op.batch, queryJSON{Measure: stormMeasures[j%len(stormMeasures)], Node: node(), K: stormK})
			}
		default:
			tol := stormTolerance
			op.route, op.q.Measure, op.q.Tolerance = "single", simstar.MeasureGeometricMemo, &tol
		}
		if op.route == "single" && i%5 == 0 {
			op.q.DeadlineMS = deadlineMS
		}
		ops[i] = op
	}
	return ops
}

// stormCert is an answer that owes a certificate audit: its maxError and
// the scores it bounds, as (node, score) entries.
type stormCert struct {
	measure string
	node    int
	maxErr  float64
	scores  []rankedJSON
}

// storm is one run's client and ledger; its goroutines report contract
// violations on t. mayFail admits the contract's failure shapes (429/503
// with Retry-After, a 500 naming the kernel panic, 504); without it every
// answer must be a 200.
type storm struct {
	t       *testing.T
	url     string
	client  *http.Client
	mayFail bool

	mu      sync.Mutex
	sent    map[string]int // requests by route
	failed  map[string]int // non-200 answers by route
	status  map[int]int    // answers by status
	streams int            // streamed reads answered 200
	certs   []stormCert
}

// do sends one request, a GET when body is nil, reads its body to the
// end and records its route and status. Reading to EOF matters: the route
// counters tick before the handler returns, and the body's last chunk only
// leaves after it.
func (st *storm) do(route, path string, body any) (code int, hdr http.Header, payload []byte) {
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = st.client.Get(st.url + path)
	} else {
		raw, _ := json.Marshal(body) // structs and maps of plain values: cannot fail
		resp, err = st.client.Post(st.url+path, "application/json", bytes.NewReader(raw))
	}
	if err == nil {
		code, hdr = resp.StatusCode, resp.Header
		payload, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		code = 0
		st.t.Errorf("%s: %v", path, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sent[route]++
	st.status[code]++
	if code != http.StatusOK {
		st.failed[route]++
	}
	return code, hdr, payload
}

// send runs one op and checks its answer against the contract.
func (st *storm) send(op stormOp) {
	var body any = op.q
	if op.route == "batch" {
		body = batchRequest{Mode: "topk", Queries: op.batch}
	}
	path := "/v1/query/" + op.route
	code, hdr, payload := st.do(op.route, path, body)
	if code == http.StatusOK {
		st.answered(op, payload)
	} else if bad := failureShape(st.mayFail, code, hdr, payload); bad != "" {
		st.t.Errorf("%s %s", path, bad)
	}
}

// failureShape checks a non-200 answer against the contract's failure
// shapes: 429 or 503 with Retry-After, a 500 naming the kernel panic, or a
// 504. It says what is wrong, or "" for an allowed shape; without mayFail
// no failure is allowed.
func failureShape(mayFail bool, code int, hdr http.Header, payload []byte) string {
	switch {
	case !mayFail:
	case code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
		if hdr.Get("Retry-After") != "" {
			return ""
		}
		return fmt.Sprintf("shed with %d and no Retry-After", code)
	case code == http.StatusInternalServerError:
		if bytes.Contains(payload, []byte("kernel panic")) {
			return ""
		}
		return fmt.Sprintf("answered 500 not naming a kernel panic: %s", payload)
	case code == http.StatusGatewayTimeout:
		return ""
	}
	return fmt.Sprintf("answered %d: %s", code, payload)
}

// slotFailureAllowed is failureShape for a batch slot's error: only a
// kernel panic or an exceeded deadline, and only with mayFail.
func slotFailureAllowed(mayFail bool, msg string) bool {
	return mayFail && (strings.Contains(msg, "kernel panic") || strings.Contains(msg, "deadline exceeded"))
}

// answered checks a 200 and keeps every degraded or tolerance answer for
// the certificate audit.
func (st *storm) answered(op stormOp, payload []byte) {
	var certs []stormCert
	switch {
	case op.route == "single":
		var r singleResponse
		if err := json.Unmarshal(payload, &r); err != nil || len(r.Scores) != stormNodes {
			st.t.Errorf("single: %v, %d scores", err, len(r.Scores))
			return
		}
		if r.Degraded || op.q.Tolerance != nil {
			c := stormCert{op.q.Measure, *op.q.Node, r.MaxError, make([]rankedJSON, stormNodes)}
			for j, score := range r.Scores {
				c.scores[j] = rankedJSON{Node: j, Score: score}
			}
			certs = append(certs, c)
		}
	case op.route == "batch":
		var r batchResponse
		if err := json.Unmarshal(payload, &r); err != nil || len(r.Results) != len(op.batch) {
			st.t.Errorf("batch: %v: %s", err, payload)
			return
		}
		for i, slot := range r.Results {
			switch {
			case slot.Error != "":
				if !slotFailureAllowed(st.mayFail, slot.Error) {
					st.t.Errorf("batch slot %d: %s", i, slot.Error)
				}
			case slot.Degraded:
				certs = append(certs, stormCert{op.batch[i].Measure, *op.batch[i].Node, slot.MaxError, slot.Top})
			}
		}
	case op.q.Stream:
		lines := bytes.Split(bytes.TrimSpace(payload), []byte("\n"))
		var head streamHeaderJSON
		var tail streamTrailerJSON
		if len(lines) < 2 || json.Unmarshal(lines[0], &head) != nil ||
			json.Unmarshal(lines[len(lines)-1], &tail) != nil || !tail.Done || tail.Count != len(lines)-2 {
			st.t.Errorf("stream did not end with its done trailer: %s", payload)
			return
		}
		st.mu.Lock()
		st.streams++
		st.mu.Unlock()
		if head.Degraded {
			top := make([]rankedJSON, len(lines)-2)
			for i, line := range lines[1 : len(lines)-1] {
				if err := json.Unmarshal(line, &top[i]); err != nil {
					st.t.Errorf("stream entry: %v", err)
				}
			}
			certs = append(certs, stormCert{op.q.Measure, *op.q.Node, head.MaxError, top})
		}
	default:
		var r topKResponse
		if err := json.Unmarshal(payload, &r); err != nil {
			st.t.Errorf("topk: %v", err)
			return
		}
		if r.Degraded {
			certs = append(certs, stormCert{op.q.Measure, *op.q.Node, r.MaxError, r.Top})
		}
	}
	st.mu.Lock()
	st.certs = append(st.certs, certs...)
	st.mu.Unlock()
}

// probe polls /healthz until stop closes, at least once: the control plane
// sits outside the admission gate, so every probe must answer 200.
func (st *storm) probe(stop <-chan struct{}) {
	for {
		if code, _, payload := st.do("healthz", "/healthz", nil); code != http.StatusOK {
			st.t.Errorf("healthz answered %d: %s", code, payload)
		}
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// TestServeStorm holds simserve's serving contract under concurrent load,
// over a real socket: stormClients clients send a seeded, zipfian mix of
// single, top-k (materialised and NDJSON-streamed), batch and tolerance
// reads while a prober polls /healthz, then stormAudits tolerance reads
// follow on the idle server. Row plain has no faults and no admission
// gate: every op answers 200. Row chaos injects kernel panics and slow
// kernels behind a tight gate with the degradation governor armed, and
// stamps a 5 ms deadline on every fifth single read: every answer must
// take one of the contract's shapes. In both rows every degraded or
// tolerance answer must hold its certificate against an exact engine, and
// /metrics must account for every request (checkStormMetrics).
func TestServeStorm(t *testing.T) {
	edges := stormEdges()
	oracle := simstar.NewEngine(simstar.GraphFromEdges(stormNodes, edges), simstar.WithCacheSize(-1))
	for _, row := range []struct {
		name       string
		faults     string // fault.Parse spec, seed 7
		gate       admissionConfig
		deadlineMS int
	}{
		{name: "plain"},
		{
			name:   "chaos",
			faults: "kernel.panic:0.02,kernel.slow:0.05:2ms",
			gate: admissionConfig{Limit: 2, Queue: 4, Wait: 25 * time.Millisecond,
				DegradeHigh: 2, DegradeLow: 0, DegradeTolerance: stormTolerance},
			deadlineMS: 5,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			in, err := fault.Parse(7, row.faults)
			if err != nil {
				t.Fatal(err)
			}
			s := newServer()
			s.faultHook = in.Hook()
			if s.adm, err = newAdmission(row.gate); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.handler())
			defer ts.Close()
			tr := &http.Transport{MaxIdleConnsPerHost: stormClients + 1}
			defer tr.CloseIdleConnections()
			st := &storm{
				t: t, url: ts.URL, client: &http.Client{Transport: tr},
				mayFail: row.faults != "" || row.gate.Limit > 0 || row.deadlineMS > 0,
				sent:    map[string]int{}, failed: map[string]int{}, status: map[int]int{},
			}
			if code, _, payload := st.do("graph", "/v1/graph", map[string]any{"nodes": stormNodes, "edges": edges}); code != http.StatusOK {
				t.Fatalf("graph upload answered %d: %s", code, payload)
			}

			stop := make(chan struct{})
			var prober, clients sync.WaitGroup
			prober.Add(1)
			go func() {
				defer prober.Done()
				st.probe(stop)
			}()
			for c := range stormClients {
				clients.Add(1)
				go func() {
					defer clients.Done()
					for _, op := range stormOps(int64(1000+c), row.deadlineMS) {
						st.send(op)
					}
				}()
			}
			clients.Wait()
			close(stop)
			prober.Wait()
			rng := rand.New(rand.NewSource(86243))
			zipf := rand.NewZipf(rng, 1.2, 1, stormNodes-1)
			for range stormAudits {
				n, tol := int(zipf.Uint64()), stormTolerance
				st.send(stormOp{route: "single", q: queryJSON{Measure: simstar.MeasureGeometricMemo, Node: &n, Tolerance: &tol}})
			}

			checkStormMetrics(t, st, s.adm != nil)
			auditCerts(t, oracle, st.certs)
			t.Logf("answers by status %v, %d certificates audited, %d healthz probes, faults fired %v",
				st.status, len(st.certs), st.sent["healthz"], in.Counts())
			// Liveness, where the count does not hang on timing: the seeded
			// schedule fires by draw index (the first panic at draw 25, the
			// first slow at draw 8) and the storm runs hundreds of kernels;
			// the post-storm audit answers on an idle gate.
			if counts := in.Counts(); in != nil && (counts[fault.PointKernelPanic] < 1 || counts[fault.PointKernelSlow] < 1) {
				t.Errorf("fault schedule fired %v, want at least one panic and one slow", counts)
			}
			if len(st.certs) < 1 || st.sent["healthz"] < 1 {
				t.Errorf("%d certificates audited and %d healthz probes, want at least one of each", len(st.certs), st.sent["healthz"])
			}
		})
	}
}

// checkStormMetrics scrapes /metrics over the wire: every route's request
// and error counters equal what the clients sent and saw, the stream
// counter equals the streams answered, the shed counters equal the 429s
// and 503s (a shed probe is a violation already), the queue-wait count equals the requests that met the gate
// (every query when gated, and nothing else: /healthz stays outside it),
// no panic reached the serving layer's barrier, and the six resilience
// series are exported.
func checkStormMetrics(t *testing.T, st *storm, gated bool) {
	t.Helper()
	resp, err := st.client.Get(st.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	vals, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	for key, got := range vals {
		for family, want := range map[string]map[string]int{
			"simserve_requests_total":       st.sent,
			"simserve_request_errors_total": st.failed,
		} {
			route, ok := strings.CutPrefix(key, family+`{route="`)
			if n := want[strings.TrimSuffix(route, `"}`)]; ok && got != float64(n) {
				t.Errorf("%s = %g, want %d", key, got, n)
			}
		}
	}
	queued := 0
	if gated {
		queued = st.sent["single"] + st.sent["topk"] + st.sent["batch"]
	}
	for key, want := range map[string]float64{
		"simstar_queue_wait_seconds_count":           float64(queued),
		"simserve_streams_total":                     float64(st.streams),
		`simstar_shed_total{reason="queue_full"}`:    float64(st.status[http.StatusTooManyRequests]),
		`simstar_shed_total{reason="queue_timeout"}`: float64(st.status[http.StatusServiceUnavailable]),
		`simstar_shed_total{reason="draining"}`:      0,
		"simserve_panics_recovered_total":            0,
	} {
		if got, ok := vals[key]; !ok || got != want {
			t.Errorf("%s = %g (exported %v), want %g", key, got, ok, want)
		}
	}
	if _, ok := vals["simstar_degraded_total"]; !ok {
		t.Error("/metrics does not export simstar_degraded_total")
	}
}

// auditCerts checks every certified answer against oracle, an exact,
// fault-free, cache-off engine on the same graph: maxError within the
// tolerance ceiling, and every score within maxError of the exact one.
func auditCerts(t *testing.T, oracle *simstar.Engine, certs []stormCert) {
	t.Helper()
	const slack = 1e-12
	type read struct {
		measure string
		node    int
	}
	exact := map[read][]float64{}
	for _, c := range certs {
		if !(c.maxErr >= 0 && c.maxErr <= stormTolerance) {
			t.Errorf("%s node %d: maxError %g outside [0, %g]", c.measure, c.node, c.maxErr, stormTolerance)
			continue
		}
		key := read{c.measure, c.node}
		want, ok := exact[key]
		if !ok {
			var err error
			if want, err = oracle.SingleSource(context.Background(), c.measure, c.node); err != nil {
				t.Fatal(err)
			}
			exact[key] = want
		}
		for _, r := range c.scores {
			if d := math.Abs(r.Score - want[r.Node]); d > c.maxErr+slack {
				t.Errorf("%s node %d: score of node %d off by %g, certificate %g", c.measure, c.node, r.Node, d, c.maxErr)
				break
			}
		}
	}
}

// TestStormFailureShapes holds the storm's classifier to the contract, so
// a storm that passes cannot have waved a wrong answer through: each
// allowed failure shape passes only on a row that may fail, and every
// other answer or batch slot error is a violation.
func TestStormFailureShapes(t *testing.T) {
	retry := http.Header{"Retry-After": {"1"}}
	for _, tc := range []struct {
		name    string
		code    int
		hdr     http.Header
		payload string
		allowed bool
	}{
		{"429+retry-after", http.StatusTooManyRequests, retry, "", true},
		{"429 bare", http.StatusTooManyRequests, nil, "", false},
		{"503+retry-after", http.StatusServiceUnavailable, retry, "", true},
		{"503 bare", http.StatusServiceUnavailable, nil, "", false},
		{"500 kernel panic", http.StatusInternalServerError, nil, `{"error":"simstar: kernel panic: boom"}`, true},
		{"500 other", http.StatusInternalServerError, nil, `{"error":"boom"}`, false},
		{"504", http.StatusGatewayTimeout, nil, "", true},
		{"418", http.StatusTeapot, retry, "", false},
		{"400", http.StatusBadRequest, nil, `{"error":"bad node"}`, false},
	} {
		if got := failureShape(true, tc.code, tc.hdr, []byte(tc.payload)) == ""; got != tc.allowed {
			t.Errorf("%s: allowed %v, want %v", tc.name, got, tc.allowed)
		}
		if failureShape(false, tc.code, tc.hdr, []byte(tc.payload)) == "" {
			t.Errorf("%s: allowed on a row that may not fail", tc.name)
		}
	}
	for _, tc := range []struct {
		msg     string
		allowed bool
	}{
		{"batch slot 3: simstar: kernel panic: boom", true},
		{"context deadline exceeded", true},
		{"dial tcp: connection refused", false},
		{"simstar: node 9999 out of range", false},
	} {
		if got := slotFailureAllowed(true, tc.msg); got != tc.allowed {
			t.Errorf("slot error %q: allowed %v, want %v", tc.msg, got, tc.allowed)
		}
		if slotFailureAllowed(false, tc.msg) {
			t.Errorf("slot error %q: allowed on a row that may not fail", tc.msg)
		}
	}
}

// TestStormDeadlineClassified pushes two reads past their 1 ms deadline
// with an injected 50 ms kernel delay, over a real socket: the single
// read answers 504 and the batch slot fails naming the deadline, and the
// storm's classifier admits both on a row that may fail and neither on a
// row that may not.
func TestStormDeadlineClassified(t *testing.T) {
	in, err := fault.Parse(3, "kernel.slow:x2:50ms")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer()
	s.faultHook = in.Hook()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	st := &storm{t: t, url: ts.URL, client: ts.Client(), mayFail: true,
		sent: map[string]int{}, failed: map[string]int{}, status: map[int]int{}}
	if code, _, payload := st.do("graph", "/v1/graph", map[string]any{"nodes": stormNodes, "edges": stormEdges()}); code != http.StatusOK {
		t.Fatalf("graph upload answered %d: %s", code, payload)
	}

	n := 0
	code, hdr, payload := st.do("single", "/v1/query/single",
		queryJSON{Measure: simstar.MeasureGeometric, Node: &n, DeadlineMS: 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("50ms injected delay against a 1ms deadline answered %d, want 504: %s", code, payload)
	}
	if bad := failureShape(true, code, hdr, payload); bad != "" {
		t.Errorf("deadline miss classified as a violation: %s", bad)
	}
	if failureShape(false, code, hdr, payload) == "" {
		t.Error("deadline miss allowed on a row that may not fail")
	}

	m := 1
	code, _, payload = st.do("batch", "/v1/query/batch", batchRequest{Mode: "topk",
		Queries: []queryJSON{{Measure: simstar.MeasureGeometric, Node: &m, K: stormK, DeadlineMS: 1}}})
	var r batchResponse
	if err := json.Unmarshal(payload, &r); code != http.StatusOK || err != nil || len(r.Results) != 1 {
		t.Fatalf("batch answered %d (%v): %s", code, err, payload)
	}
	msg := r.Results[0].Error
	if !strings.Contains(msg, "deadline exceeded") {
		t.Fatalf("batch slot error %q does not name the deadline", msg)
	}
	if !slotFailureAllowed(true, msg) || slotFailureAllowed(false, msg) {
		t.Errorf("batch slot deadline miss %q misclassified", msg)
	}
	if got := in.Counts()[fault.PointKernelSlow]; got != 2 {
		t.Errorf("slow kernel fired %d times, want 2", got)
	}
}
