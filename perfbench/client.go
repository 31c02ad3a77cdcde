package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// client drives one server over a single keep-alive connection. It writes
// each request and reads its response on the calling goroutine, so a
// round trip involves no transport goroutines and no hand-offs between
// threads, which on a shared host are where the scheduler's delays land.
// Dials are counted so a run can show it never held a second connection.
type client struct {
	addr  string
	ctx   context.Context
	conn  net.Conn
	br    *bufio.Reader
	wbuf  []byte
	dials int
	// drop marks a connection the server asked to close or that failed
	// mid-response; the next request dials again.
	drop bool
}

// requestTimeout bounds one round trip, so a wedged server fails the run
// instead of hanging it.
const requestTimeout = 60 * time.Second

// newClient returns a client of the server at addr; cancelling ctx fails
// the request in flight.
func newClient(ctx context.Context, addr string) *client {
	return &client{addr: addr, ctx: ctx}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// send writes one request and reads the response's head. The caller reads
// the body to EOF and closes it before the next send.
func (c *client) send(method, target string, body []byte) (*http.Response, error) {
	if c.drop {
		c.close()
		c.drop = false
	}
	if c.conn == nil {
		conn, err := (&net.Dialer{Timeout: 5 * time.Second}).DialContext(c.ctx, "tcp", c.addr)
		if err != nil {
			return nil, err
		}
		context.AfterFunc(c.ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 32<<10)
		c.dials++
	}
	if err := c.conn.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		c.close()
		return nil, err
	}
	c.wbuf = fmt.Appendf(c.wbuf[:0], "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, target, c.addr, len(body))
	c.wbuf = append(c.wbuf, body...)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		c.close()
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return nil, err
	}
	c.drop = resp.Close
	resp.Body = &bodyReader{ReadCloser: resp.Body, c: c}
	return resp, nil
}

// bodyReader marks the connection for a redial when a body read fails,
// since the response's end can no longer be found on it.
type bodyReader struct {
	io.ReadCloser
	c *client
}

func (b *bodyReader) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil && err != io.EOF {
		b.c.drop = true
	}
	return n, err
}

// ranked is one top-k entry on the wire.
type ranked struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// answer is one query's result as the server sent it.
type answer struct {
	Top      []ranked
	MaxError float64
}

// traceJSON is the subset of simserve's ?trace=1 record the benchmark reads.
type traceJSON struct {
	Cached bool   `json:"cached"`
	Plan   string `json:"plan"`
	Spans  []struct {
		Stage      string  `json:"stage"`
		DurationUs float64 `json:"duration_us"`
	} `json:"spans"`
	Kernel struct {
		Sweeps      int `json:"sweeps"`
		FrontierMax int `json:"frontier_max"`
	} `json:"kernel"`
	TotalUs float64 `json:"total_us"`
}

// span returns the summed duration of the named stage, and whether the
// trace has it.
func (t *traceJSON) span(stage string) (float64, bool) {
	var us float64
	found := false
	for _, s := range t.Spans {
		if s.Stage == stage {
			us += s.DurationUs
			found = true
		}
	}
	return us, found
}

// result is the client's record of one request.
type result struct {
	Start   time.Duration // since the phase began
	Latency time.Duration // send until the response is fully read and decoded
	Bytes   int
	Err     error
	Answers []answer // one per query, in query order
	Trace   *traceJSON
	// Edit requests only.
	Epoch     uint64
	RefreshMs float64
}

// wire forms of the requests.
type queryWire struct {
	Measure   string   `json:"measure"`
	Node      int      `json:"node"`
	K         int      `json:"k"`
	Tolerance *float64 `json:"tolerance,omitempty"`
	Stream    bool     `json:"stream,omitempty"`
}

func wireQuery(q query) queryWire {
	w := queryWire{Measure: q.Class.measure(), Node: q.Node, K: topK}
	if q.Class == classSieve {
		tol := tolerance
		w.Tolerance = &tol
	}
	return w
}

// encode renders the op's request path and body.
func encode(o *op) (string, []byte, error) {
	var path string
	var v any
	switch o.Kind {
	case opTopK:
		w := wireQuery(o.Q[0])
		w.Stream = o.Stream
		path, v = "/v1/query/topk", w
	case opBatch:
		qs := make([]queryWire, len(o.Q))
		for i, q := range o.Q {
			qs[i] = wireQuery(q)
		}
		path, v = "/v1/query/batch", struct {
			Mode    string      `json:"mode"`
			Queries []queryWire `json:"queries"`
			Stream  bool        `json:"stream,omitempty"`
		}{"topk", qs, o.Stream}
	case opEdit:
		path, v = "/v1/edges", struct {
			Insert [][2]int `json:"insert,omitempty"`
			Delete [][2]int `json:"delete,omitempty"`
		}{o.Insert, o.Delete}
	}
	b, err := json.Marshal(v)
	return path, b, err
}

// countingReader counts the response bytes read.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// do sends one request and decodes its answer. A request fails on a
// transport error, a non-200 status, a malformed body, a per-query error
// or a stream that ends without its done trailer.
func (c *client) do(o *op, path string, body []byte, traced bool) result {
	var res result
	if traced && o.Kind != opEdit {
		path += "?trace=1"
	}
	t0 := time.Now()
	res.Err = c.roundTrip(o, path, body, &res)
	res.Latency = time.Since(t0)
	return res
}

func (c *client) roundTrip(o *op, path string, body []byte, res *result) error {
	resp, err := c.send(http.MethodPost, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	defer func() {
		// Reading to EOF, past a stream's trailer line and the closing
		// chunk, leaves the connection at the next response.
		io.Copy(io.Discard, cr)
		res.Bytes = cr.n
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(cr, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if o.Stream {
		return decodeStream(bufio.NewReader(cr), o, res)
	}
	raw, err := io.ReadAll(cr)
	if err != nil {
		return err
	}
	switch o.Kind {
	case opTopK:
		var r struct {
			MaxError float64    `json:"maxError"`
			Top      []ranked   `json:"top"`
			Trace    *traceJSON `json:"trace"`
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		res.Answers = []answer{{Top: r.Top, MaxError: r.MaxError}}
		res.Trace = r.Trace
	case opBatch:
		var r struct {
			Results []batchSlot `json:"results"`
			Trace   *traceJSON  `json:"trace"`
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		res.Trace = r.Trace
		return fillBatch(res, r.Results, len(o.Q))
	case opEdit:
		var r struct {
			Epoch     uint64  `json:"epoch"`
			RefreshMs float64 `json:"refresh_ms"`
			Refreshed bool    `json:"refreshed"`
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		if !r.Refreshed {
			return errors.New("edit did not materialise an epoch")
		}
		res.Epoch, res.RefreshMs = r.Epoch, r.RefreshMs
	}
	return nil
}

// batchSlot is one result slot of a batch, materialised or streamed.
type batchSlot struct {
	Index    int      `json:"index"`
	MaxError float64  `json:"maxError"`
	Top      []ranked `json:"top"`
	Error    string   `json:"error"`
}

func fillBatch(res *result, slots []batchSlot, want int) error {
	if len(slots) != want {
		return fmt.Errorf("batch answered %d slots, want %d", len(slots), want)
	}
	res.Answers = make([]answer, want)
	for i, s := range slots {
		if s.Error != "" {
			return fmt.Errorf("batch slot %d: %s", i, s.Error)
		}
		res.Answers[i] = answer{Top: s.Top, MaxError: s.MaxError}
	}
	return nil
}

// streamLine is any NDJSON line of a topk or batch stream. The first line
// is the header; a line carrying done or status is the trailer.
type streamLine struct {
	batchSlot
	Score    float64    `json:"score"`
	Node     int        `json:"node"`
	Count    int        `json:"count"`
	Done     *bool      `json:"done"`
	Status   int        `json:"status"`
	Trace    *traceJSON `json:"trace"`
	MaxError float64    `json:"maxError"`
}

func decodeStream(br *bufio.Reader, o *op, res *result) error {
	var header streamLine
	var entries []streamLine
	for n := 0; ; n++ {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) == 0 {
			if err == nil {
				continue
			}
			return fmt.Errorf("stream ended without its done trailer after %d lines: %v", n, err)
		}
		var l streamLine
		if jerr := json.Unmarshal(line, &l); jerr != nil {
			return fmt.Errorf("stream line %d: %w", n, jerr)
		}
		switch {
		case n == 0:
			header = l
		case l.Done != nil || l.Status != 0:
			if l.Done == nil || !*l.Done {
				return fmt.Errorf("stream aborted: status %d: %s", l.Status, l.Error)
			}
			if l.Count != len(entries) {
				return fmt.Errorf("stream trailer counts %d entries, got %d", l.Count, len(entries))
			}
			res.Trace = l.Trace
			return finishStream(res, o, header, entries)
		default:
			entries = append(entries, l)
		}
	}
}

func finishStream(res *result, o *op, header streamLine, entries []streamLine) error {
	if o.Kind == opBatch {
		slots := make([]batchSlot, len(entries))
		for i, e := range entries {
			if e.Index != i {
				return fmt.Errorf("batch stream line %d has index %d", i, e.Index)
			}
			slots[i] = e.batchSlot
			slots[i].MaxError = e.MaxError
		}
		return fillBatch(res, slots, len(o.Q))
	}
	top := make([]ranked, len(entries))
	for i, e := range entries {
		top[i] = ranked{Node: e.Node, Score: e.Score}
	}
	res.Answers = []answer{{Top: top, MaxError: header.MaxError}}
	return nil
}

// getJSON fetches a control-plane endpoint over the same connection.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.send(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return decodeBody(resp, v)
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metrics scrapes /metrics into name{labels} → value.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.send(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parsePrometheus(resp.Body)
}
