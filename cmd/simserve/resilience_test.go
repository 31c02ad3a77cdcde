package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/simstar"
)

// newAdmittedServer builds a test server with the admission gate armed and,
// optionally, a kernel hook the engine fires on every kernel entry.
func newAdmittedServer(t *testing.T, cfg admissionConfig, hook func(site string)) (*server, http.Handler) {
	t.Helper()
	s := newServer()
	var err error
	if s.adm, err = newAdmission(cfg); err != nil {
		t.Fatal(err)
	}
	s.faultHook = hook
	h := s.handler()
	loadTestGraph(t, h)
	return s, h
}

func singleQuery(measure string) map[string]any {
	return map[string]any{"measure": measure, "label": "survey"}
}

// A saturated gate with no queue must shed the second request with 429 and
// a Retry-After header while the first still holds the tokens.
func TestAdmissionShedsQueueFull(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	_, h := newAdmittedServer(t, admissionConfig{Limit: 1, Queue: 0, Wait: 50 * time.Millisecond},
		func(string) {
			entered <- struct{}{}
			<-release
		})

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(singleQuery("gsimrank*"))
		req := httptest.NewRequest("POST", "/v1/query/single", &buf)
		h.ServeHTTP(rec, req)
		firstDone <- rec
	}()
	<-entered // the first request is inside the kernel, holding the token

	rec := doJSON(t, h, "POST", "/v1/query/single", singleQuery("gsimrank*"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated gate answered %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	close(release)
	if first := <-firstDone; first.Code != http.StatusOK {
		t.Fatalf("admitted request answered %d: %s", first.Code, first.Body)
	}
}

// A queued request whose wait budget expires must shed with 503, again with
// Retry-After.
func TestAdmissionShedsQueueTimeout(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s, h := newAdmittedServer(t, admissionConfig{Limit: 1, Queue: 4, Wait: 20 * time.Millisecond},
		func(string) {
			entered <- struct{}{}
			<-release
		})
	defer close(release)

	go func() {
		rec := httptest.NewRecorder()
		var buf bytes.Buffer
		json.NewEncoder(&buf).Encode(singleQuery("gsimrank*"))
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query/single", &buf))
	}()
	<-entered

	rec := doJSON(t, h, "POST", "/v1/query/single", singleQuery("gsimrank*"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request answered %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	snap := s.reg.Snapshot()
	if snap[`simstar_shed_total{reason="queue_timeout"}`] != 1 {
		t.Fatalf("shed counter not incremented: %v", snap[`simstar_shed_total{reason="queue_timeout"}`])
	}
	if snap["simstar_queue_wait_seconds_count"] < 1 {
		t.Fatal("queue wait histogram saw no observations")
	}
}

// Once draining starts, query routes shed everything with 503 while the
// control plane stays reachable.
func TestDrainingShedsQueriesNotControlPlane(t *testing.T) {
	s, h := newTestServer(t)
	loadTestGraph(t, h)
	s.beginDrain()

	rec := doJSON(t, h, "POST", "/v1/query/single", singleQuery("gsimrank*"))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("draining shed missing Retry-After")
	}
	for _, path := range []string{"/healthz", "/metrics", "/v1/stats"} {
		if rec := doJSON(t, h, "GET", path, nil); rec.Code != http.StatusOK {
			t.Fatalf("control-plane %s answered %d while draining", path, rec.Code)
		}
	}
}

// Degraded mode must downgrade eligible exact queries to the certified
// approximate path: the response carries the degraded marker and a maxError
// certificate that actually bounds the deviation from the exact answer.
func TestDegradedModeCertified(t *testing.T) {
	s, h := newAdmittedServer(t, admissionConfig{
		Limit: 4, Queue: 8, Wait: 100 * time.Millisecond,
		DegradeHigh: 1, DegradeLow: 0, DegradeTolerance: 1e-3,
	}, nil)

	// Exact baseline before the governor engages.
	var exact singleResponse
	rec := doJSON(t, h, "POST", "/v1/query/single", singleQuery("gsimrank*"))
	if rec.Code != http.StatusOK {
		t.Fatalf("exact query: %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Degraded || exact.MaxError != 0 {
		t.Fatalf("unloaded server degraded a query: %+v", exact)
	}

	// Each release re-evaluates the watermarks and, on this idle server,
	// leaves degraded mode, so each case below enters it first.
	degrade := func() {
		s.adm.mu.Lock()
		s.adm.degraded = true
		s.adm.mu.Unlock()
	}
	degrade()

	var deg singleResponse
	rec = doJSON(t, h, "POST", "/v1/query/single", singleQuery("gsimrank*"))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded query: %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &deg); err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded {
		t.Fatal("degraded mode did not mark the response")
	}
	// On a graph this small the sieve may drop nothing — a certificate of
	// exactly 0 then means "certified exact", which is fine; what must hold
	// is the ceiling.
	if deg.MaxError < 0 || deg.MaxError > 1e-3 {
		t.Fatalf("degraded certificate %g outside [0, 1e-3]", deg.MaxError)
	}
	for i := range exact.Scores {
		if d := math.Abs(deg.Scores[i] - exact.Scores[i]); d > deg.MaxError+1e-12 {
			t.Fatalf("score %d off by %g, certificate promised %g", i, d, deg.MaxError)
		}
	}
	if got := s.reg.Snapshot()["simstar_degraded_total"]; got < 1 {
		t.Fatalf("simstar_degraded_total = %g, want >= 1", got)
	}

	// A query that asked for its own tolerance keeps it (no double
	// degrade), and a measure without a certified path is never downgraded.
	withTol := singleQuery("gsimrank*")
	withTol["tolerance"] = 1e-6
	degrade()
	rec = doJSON(t, h, "POST", "/v1/query/single", withTol)
	var own singleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &own); err != nil {
		t.Fatal(err)
	}
	if own.Degraded || own.MaxError > 1e-6 {
		t.Fatalf("tolerance query was degraded: %+v", own)
	}
	degrade()
	rec = doJSON(t, h, "POST", "/v1/query/single", singleQuery("simrank"))
	var sr singleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || sr.Degraded || sr.MaxError != 0 {
		t.Fatalf("uncertified measure was degraded: %d %+v", rec.Code, sr)
	}
	// A sieve makes the engine answer exactly whatever the tolerance, so a
	// query carrying one is never marked degraded.
	sieved := singleQuery("gsimrank*")
	sieved["options"] = map[string]any{"sieve": 1e-3}
	degrade()
	rec = doJSON(t, h, "POST", "/v1/query/single", sieved)
	var sv singleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sv); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || sv.Degraded || sv.MaxError != 0 {
		t.Fatalf("sieve query was degraded: %d %+v", rec.Code, sv)
	}
	// Below simstar.MinTolerance, or NaN, the engine answers exactly, so a
	// governor degrading to such a ceiling would mark exact answers
	// degraded: the gate refuses it whenever degradation is on.
	for _, tol := range []float64{0, 1e-12, math.NaN()} {
		if _, err := newAdmission(admissionConfig{Limit: 4, DegradeHigh: 1, DegradeTolerance: tol}); err == nil {
			t.Errorf("degrade tolerance %g accepted", tol)
		}
		if _, err := newAdmission(admissionConfig{Limit: 4, DegradeTolerance: tol}); err != nil {
			t.Errorf("degrade tolerance %g refused with degradation off: %v", tol, err)
		}
	}
}

// An injected kernel panic answers 500 — isolated, counted, and gone: the
// very next request must succeed.
func TestKernelPanicAnswers500AndServerSurvives(t *testing.T) {
	in, err := fault.Parse(7, "kernel.panic:x1")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer()
	s.faultHook = in.Hook()
	h := s.handler()
	loadTestGraph(t, h)

	rec := doJSON(t, h, "POST", "/v1/query/single", singleQuery("gsimrank*"))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("kernel panic answered %d, want 500: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "panic") {
		t.Fatalf("error body does not mention the panic: %s", rec.Body)
	}
	rec = doJSON(t, h, "POST", "/v1/query/single", singleQuery("gsimrank*"))
	if rec.Code != http.StatusOK {
		t.Fatalf("server did not survive the kernel panic: %d: %s", rec.Code, rec.Body)
	}
}

// A panic in the serving layer itself (not the kernels) is caught by the
// per-request barrier: 500 to the client, counter incremented, process
// intact.
func TestHandlerPanicRecovered(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.instrument("boom", func(http.ResponseWriter, *http.Request) {
		panic("serving-layer bug")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("recovered panic answered %d, want 500", rec.Code)
	}
	if got := s.reg.Snapshot()["simserve_panics_recovered_total"]; got != 1 {
		t.Fatalf("simserve_panics_recovered_total = %g, want 1", got)
	}
}

// deadline_ms must abort a slow kernel with 504, on the single endpoint and
// at batch level.
func TestDeadlineMSAnswers504(t *testing.T) {
	_, h := newAdmittedServer(t, admissionConfig{Limit: 4, Queue: 8, Wait: time.Second},
		func(string) { time.Sleep(30 * time.Millisecond) })

	q := singleQuery("gsimrank*")
	q["deadline_ms"] = 1
	rec := doJSON(t, h, "POST", "/v1/query/single", q)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline answered %d, want 504: %s", rec.Code, rec.Body)
	}

	rec = doJSON(t, h, "POST", "/v1/query/batch", map[string]any{
		"deadline_ms": 1,
		"queries":     []map[string]any{singleQuery("gsimrank*"), singleQuery("rwr")},
	})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired batch deadline answered %d, want 504: %s", rec.Code, rec.Body)
	}

	// A per-query deadline is that query's alone: of two identical batch
	// queries, only the first carrying deadline_ms, the second answers.
	rec = doJSON(t, h, "POST", "/v1/query/batch", map[string]any{
		"queries": []map[string]any{q, singleQuery("gsimrank*")},
	})
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch with one per-query deadline: %d %v: %s", rec.Code, err, rec.Body)
	}
	if resp.Results[0].Error == "" || resp.Results[1].Error != "" || len(resp.Results[1].Scores) == 0 {
		t.Fatalf("only the query with deadline_ms must fail: %+v", resp.Results)
	}
}

// The drain hard cap must terminate a stream with the in-band 499 trailer
// rather than leaving the client on a silently dead connection.
func TestForceDrainEndsStreamWith499Trailer(t *testing.T) {
	s, h := newTestServer(t)
	loadTestGraph(t, h)
	s.forceDrain()
	// Force-drain only cuts emission loops; admission still runs, so reach
	// the stream through a non-draining gate state by resetting draining.
	s.draining.Store(false)

	q := singleQuery("gsimrank*")
	q["k"] = 5
	q["stream"] = true
	rec := doJSON(t, h, "POST", "/v1/query/topk", q)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d, want 200 (499 rides in the trailer)", rec.Code)
	}
	var lines []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 {
		t.Fatalf("forced stream emitted %d lines, want header+trailer: %v", len(lines), lines)
	}
	var trailer streamTrailerJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatal(err)
	}
	if trailer.Done || trailer.Status != statusClientClosedRequest {
		t.Fatalf("trailer %+v, want status 499", trailer)
	}
	if !strings.Contains(trailer.Error, "draining") {
		t.Fatalf("trailer error %q does not mention draining", trailer.Error)
	}
}

// The startup snapshot loader retries transient read failures and succeeds
// once the (deterministic) fault schedule runs dry — and gives up with the
// underlying error when it does not.
func TestLoadSnapshotRetries(t *testing.T) {
	g, err := simstar.ReadGraph(strings.NewReader(testGraphEdgeList))
	if err != nil {
		t.Fatal(err)
	}
	eng := simstar.NewEngine(g)
	path := filepath.Join(t.TempDir(), "snap.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	in, err := fault.Parse(1, "snapshot.err:x2")
	if err != nil {
		t.Fatal(err)
	}
	got, epoch, err := loadSnapshot(path, in, 2)
	if err != nil {
		t.Fatalf("retry did not recover from 2 injected failures: %v", err)
	}
	if epoch != 0 || got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("reloaded %d nodes / %d edges at epoch %d", got.N(), got.M(), epoch)
	}

	in, err = fault.Parse(1, "snapshot.err:x100")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSnapshot(path, in, 1); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("persistent failure surfaced as %v, want fault.ErrInjected", err)
	}
}
