package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/simstar"
)

// A target executes ops against one serving surface. The two
// implementations answer the same op with the same digest: engineTarget
// folds the engine's float64 bits directly, httpTarget folds the floats
// parsed back off the wire — encoding/json round-trips float64 exactly
// (shortest-form strconv), so `-mode engine` and `-mode http` runs of the
// same seed produce the same result checksum against the same graph epoch.
type target interface {
	// run executes one op and returns a digest of every score it observed.
	run(ctx context.Context, o op) (uint64, error)
	// applyChurn applies one churn round (insertions then deletions).
	applyChurn(ctx context.Context, insert, del [][2]int) (churnDelta, error)
	// cacheCounters reports the serving-side result-cache counters, when
	// the surface exposes them.
	cacheCounters() (hits, misses uint64, ok bool)
	// metricsSnapshot reports the serving side's cumulative metrics — the
	// engine observer's registry in-process, a GET /metrics scrape over
	// HTTP — keyed like obs.Registry.Snapshot. Scenario rows record the
	// delta of the counter families across the run.
	metricsSnapshot() (map[string]float64, bool)
	// certFetch answers one certified tolerance query — scores plus the
	// maxError certificate — for the chaos mode's exact-or-certified audit.
	certFetch(ctx context.Context, measure string, node int, tol float64) (scores []float64, maxErr float64, err error)
}

// statusError is a non-200 HTTP answer with enough structure for the chaos
// classifier: the status code, and whether the contract's Retry-After header
// came with a shed response.
type statusError struct {
	code       int
	retryAfter bool
	msg        string
}

func (e *statusError) Error() string { return e.msg }

type churnDelta struct {
	epoch     uint64
	applied   int
	refreshMs float64
}

// digestWriter folds (node, score) observations into an FNV-1a stream in
// observation order.
type digestWriter struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digestWriter {
	return &digestWriter{h: fnv.New64a()}
}

func (d *digestWriter) word(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digestWriter) score(node int, score float64) {
	d.word(uint64(node))
	d.word(math.Float64bits(score))
}

func (d *digestWriter) scores(scores []float64) {
	for i, s := range scores {
		d.score(i, s)
	}
}

func (d *digestWriter) sum() uint64 { return d.h.Sum64() }

// engineTarget drives an in-process engine. tol is the pre-derived
// tolerance view (Engine.With), built once so opTolerance queries do not
// pay a per-op derivation.
type engineTarget struct {
	eng  *simstar.Engine
	tol  *simstar.Engine
	obsv *simstar.Observer
}

func newEngineTarget(g *simstar.Graph, tolerance float64, opts ...simstar.Option) *engineTarget {
	// The observer is part of the measured configuration: the serving path
	// always runs instrumented in production, so the benchmark does too
	// (BENCH_8's "obs" member bounds what that instrumentation costs).
	o := simstar.NewObserver(nil)
	eng := simstar.NewEngine(g, append(opts, simstar.WithObserver(o))...)
	return &engineTarget{eng: eng, tol: eng.With(simstar.WithTolerance(tolerance)), obsv: o}
}

func (t *engineTarget) run(ctx context.Context, o op) (uint64, error) {
	d := newDigest()
	switch o.kind {
	case opSingle, opTolerance:
		eng := t.eng
		if o.kind == opTolerance {
			eng = t.tol
		}
		if o.deadlineMS > 0 {
			eng = eng.With(simstar.WithDeadline(time.Duration(o.deadlineMS) * time.Millisecond))
		}
		scores, err := eng.SingleSource(ctx, o.measure, o.node)
		if err != nil {
			return 0, err
		}
		d.scores(scores)
	case opTopK:
		top, err := t.eng.TopK(ctx, o.measure, o.node, o.k)
		if err != nil {
			return 0, err
		}
		for _, r := range top {
			d.score(r.Node, r.Score)
		}
	case opStream:
		// The one-query BatchTopK simserve runs for a streamed read.
		res := t.eng.BatchTopK(ctx, []simstar.Query{{Measure: o.measure, Node: o.node, K: o.k}})[0]
		if res.Err != nil {
			return 0, res.Err
		}
		for _, r := range res.Top {
			d.score(r.Node, r.Score)
		}
	case opBatch:
		queries := make([]simstar.Query, len(o.batch))
		for i, it := range o.batch {
			queries[i] = simstar.Query{Measure: it.measure, Node: it.node, K: o.k}
		}
		for _, res := range t.eng.BatchTopK(ctx, queries) {
			if res.Err != nil {
				return 0, res.Err
			}
			for _, r := range res.Top {
				d.score(r.Node, r.Score)
			}
		}
	}
	return d.sum(), nil
}

func (t *engineTarget) applyChurn(ctx context.Context, insert, del [][2]int) (churnDelta, error) {
	edits := make([]simstar.Edit, 0, len(insert)+len(del))
	for _, e := range insert {
		edits = append(edits, simstar.InsertEdge(e[0], e[1]))
	}
	for _, e := range del {
		edits = append(edits, simstar.DeleteEdge(e[0], e[1]))
	}
	st, err := t.eng.ApplyEdits(edits...)
	if err != nil {
		return churnDelta{}, err
	}
	return churnDelta{
		epoch:     st.Epoch,
		applied:   st.Applied,
		refreshMs: float64(st.RefreshTime.Microseconds()) / 1e3,
	}, nil
}

func (t *engineTarget) cacheCounters() (uint64, uint64, bool) {
	cs := t.eng.CacheStats()
	return cs.Hits, cs.Misses, true
}

func (t *engineTarget) metricsSnapshot() (map[string]float64, bool) {
	return t.obsv.Registry().Snapshot(), true
}

// certFetch answers through the engine's batch path, which carries the
// MaxError certificate alongside the scores. In chaos mode the engine still
// has the fault hook installed — an injected panic or deadline surfaces as
// the Result's error and the audit skips the sample.
func (t *engineTarget) certFetch(ctx context.Context, measure string, node int, tol float64) ([]float64, float64, error) {
	res := t.eng.With(simstar.WithTolerance(tol)).MultiSource(ctx, []simstar.Query{{Measure: measure, Node: node}})[0]
	return res.Scores, res.MaxError, res.Err
}

// httpTarget drives a running simserve over its v1 wire protocol, streaming
// NDJSON for opStream ops. Request bodies mirror cmd/simserve's queryJSON.
type httpTarget struct {
	base      string
	client    *http.Client
	tolerance float64
}

func newHTTPTarget(addr string, tolerance float64) *httpTarget {
	return &httpTarget{
		base:      strings.TrimRight(addr, "/"),
		client:    &http.Client{},
		tolerance: tolerance,
	}
}

// httpError is the decoded {"error": ...} payload of a non-200 answer,
// carried as a statusError so the chaos classifier can see the status code
// and the Retry-After header.
func httpError(resp *http.Response) error {
	se := &statusError{
		code:       resp.StatusCode,
		retryAfter: resp.Header.Get("Retry-After") != "",
	}
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		se.msg = fmt.Sprintf("%s: %s", resp.Status, e.Error)
	} else {
		se.msg = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return se
}

func (t *httpTarget) post(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// wireQuery mirrors simserve's queryJSON request shape.
type wireQuery struct {
	Measure    string   `json:"measure"`
	Node       *int     `json:"node,omitempty"`
	K          int      `json:"k,omitempty"`
	Tolerance  *float64 `json:"tolerance,omitempty"`
	Stream     bool     `json:"stream,omitempty"`
	DeadlineMS int      `json:"deadline_ms,omitempty"`
}

// wireRanked mirrors simserve's rankedJSON.
type wireRanked struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

func (t *httpTarget) run(ctx context.Context, o op) (uint64, error) {
	d := newDigest()
	node := o.node
	switch o.kind {
	case opSingle, opTolerance:
		q := wireQuery{Measure: o.measure, Node: &node, DeadlineMS: o.deadlineMS}
		if o.kind == opTolerance {
			tol := t.tolerance
			q.Tolerance = &tol
		}
		var out struct {
			Scores []float64 `json:"scores"`
		}
		if err := t.post(ctx, "/v1/query/single", q, &out); err != nil {
			return 0, err
		}
		d.scores(out.Scores)
	case opTopK:
		var out struct {
			Top []wireRanked `json:"top"`
		}
		if err := t.post(ctx, "/v1/query/topk", wireQuery{Measure: o.measure, Node: &node, K: o.k}, &out); err != nil {
			return 0, err
		}
		for _, r := range out.Top {
			d.score(r.Node, r.Score)
		}
	case opStream:
		if err := t.stream(ctx, o, d); err != nil {
			return 0, err
		}
	case opBatch:
		queries := make([]wireQuery, len(o.batch))
		for i, it := range o.batch {
			n := it.node
			queries[i] = wireQuery{Measure: it.measure, Node: &n, K: o.k}
		}
		var out struct {
			Results []struct {
				Top   []wireRanked `json:"top"`
				Error string       `json:"error"`
			} `json:"results"`
		}
		body := map[string]any{"mode": "topk", "queries": queries}
		if err := t.post(ctx, "/v1/query/batch", body, &out); err != nil {
			return 0, err
		}
		for i, res := range out.Results {
			if res.Error != "" {
				return 0, fmt.Errorf("batch slot %d: %s", i, res.Error)
			}
			for _, r := range res.Top {
				d.score(r.Node, r.Score)
			}
		}
	}
	return d.sum(), nil
}

// stream runs one NDJSON topk stream, folding entry lines as they arrive —
// the consumer-side counterpart of the server's chunked writer.
func (t *httpTarget) stream(ctx context.Context, o op, d *digestWriter) error {
	node := o.node
	raw, err := json.Marshal(wireQuery{Measure: o.measure, Node: &node, K: o.k, Stream: true})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+"/v1/query/topk", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	// Entry lines carry "score"; the header does not, and the trailer
	// reports done/error. Any error line fails the op.
	type line struct {
		Node  *int     `json:"node"`
		Score *float64 `json:"score"`
		Done  *bool    `json:"done"`
		Error string   `json:"error"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	done := false
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("bad NDJSON line %q: %w", sc.Text(), err)
		}
		switch {
		case l.Error != "":
			return fmt.Errorf("stream trailer: %s", l.Error)
		case l.Score != nil && l.Node != nil:
			d.score(*l.Node, *l.Score)
		case l.Done != nil && *l.Done:
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("stream ended without a done trailer")
	}
	return nil
}

func (t *httpTarget) applyChurn(ctx context.Context, insert, del [][2]int) (churnDelta, error) {
	body := map[string]any{}
	if len(insert) > 0 {
		body["insert"] = insert
	}
	if len(del) > 0 {
		body["delete"] = del
	}
	var out struct {
		Epoch     uint64  `json:"epoch"`
		Applied   int     `json:"applied"`
		RefreshMs float64 `json:"refresh_ms"`
	}
	if err := t.post(ctx, "/v1/edges", body, &out); err != nil {
		return churnDelta{}, err
	}
	return churnDelta{epoch: out.Epoch, applied: out.Applied, refreshMs: out.RefreshMs}, nil
}

func (t *httpTarget) cacheCounters() (uint64, uint64, bool) {
	var out struct {
		Cache *struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	req, err := http.NewRequest(http.MethodGet, t.base+"/v1/stats", nil)
	if err != nil {
		return 0, 0, false
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil || out.Cache == nil {
		return 0, 0, false
	}
	return out.Cache.Hits, out.Cache.Misses, true
}

// metricsSnapshot scrapes the server's /metrics exposition. A scrape
// failure (an older simserve without the endpoint) degrades to "no
// metrics", never to a failed benchmark.
func (t *httpTarget) metricsSnapshot() (map[string]float64, bool) {
	resp, err := t.client.Get(t.base + "/metrics")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	vals, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, false
	}
	return vals, true
}

// certFetch answers a certified tolerance query over the wire, for the
// chaos mode's audit of the server's maxError certificates.
func (t *httpTarget) certFetch(ctx context.Context, measure string, node int, tol float64) ([]float64, float64, error) {
	q := wireQuery{Measure: measure, Node: &node, Tolerance: &tol}
	var out struct {
		Scores   []float64 `json:"scores"`
		MaxError float64   `json:"maxError"`
	}
	if err := t.post(ctx, "/v1/query/single", q, &out); err != nil {
		return nil, 0, err
	}
	return out.Scores, out.MaxError, nil
}

// probeHealth is one GET /healthz liveness probe (see healthProber). The
// control plane is exempt from admission control, so it must answer 200
// however overloaded or faulted the query plane is.
func (t *httpTarget) probeHealth(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %s", resp.Status)
	}
	return nil
}

// loadGraph installs the benchmark graph on the remote server so both modes
// measure the same workload on the same topology.
func (t *httpTarget) loadGraph(ctx context.Context, nodes int, edges [][2]int) error {
	var out struct {
		Nodes int `json:"nodes"`
		Edges int `json:"edges"`
	}
	body := map[string]any{"nodes": nodes, "edges": edges}
	if err := t.post(ctx, "/v1/graph", body, &out); err != nil {
		return err
	}
	if out.Nodes != nodes {
		return fmt.Errorf("server loaded %d nodes, want %d", out.Nodes, nodes)
	}
	return nil
}
