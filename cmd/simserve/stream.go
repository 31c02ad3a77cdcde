package main

// Chunked NDJSON streaming for the topk and batch endpoints. A request with
// "stream": true answers with Content-Type application/x-ndjson and a body
// of newline-delimited JSON objects, flushed per line so the client renders
// results as they arrive (Transfer-Encoding: chunked on HTTP/1.1):
//
//	header line   — query echo + cached/maxError metadata
//	entry lines   — one ranked entry (topk) or one query result (batch)
//	trailer line  — {"done":true,"count":N}, or on a mid-stream client
//	                disconnect {"error":...,"status":499} (the status line
//	                already said 200, so 499 semantics ride in the trailer
//	                and the server's streams_aborted counter).
//
// Every line is a complete JSON document: however early the client hangs
// up, what it received is well-formed NDJSON.

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/simstar"
)

// streamHeaderJSON is the first NDJSON line of a streamed topk response.
type streamHeaderJSON struct {
	Measure string `json:"measure"`
	Node    int    `json:"node"`
	Label   string `json:"label,omitempty"`
	K       int    `json:"k"`
	Cached  bool   `json:"cached"`
	// MaxError certifies the underlying score vector (see topKResponse).
	MaxError float64 `json:"maxError"`
	// Degraded marks a stream the overload governor downgraded to the
	// certified approximate path (see singleResponse.Degraded).
	Degraded bool `json:"degraded,omitempty"`
}

// streamEntryJSON is one ranked entry line. MaxError is repeated per chunk
// for tolerance queries, so a consumer acting on a prefix of the stream
// holds the certificate without needing the header line.
type streamEntryJSON struct {
	Node     int      `json:"node"`
	Label    string   `json:"label,omitempty"`
	Score    float64  `json:"score"`
	MaxError *float64 `json:"maxError,omitempty"`
}

// streamBatchHeaderJSON is the first NDJSON line of a streamed batch
// response.
type streamBatchHeaderJSON struct {
	Count int `json:"count"`
}

// streamBatchEntryJSON is one batch result line: the enveloping document's
// slot, unrolled and indexed.
type streamBatchEntryJSON struct {
	Index int `json:"index"`
	batchResultJSON
}

// streamTrailerJSON terminates every stream.
type streamTrailerJSON struct {
	Done  bool   `json:"done"`
	Count int    `json:"count"`
	Error string `json:"error,omitempty"`
	// Status carries the effective status of an aborted stream (499); the
	// HTTP status line was already committed as 200 when the body started.
	Status int `json:"status,omitempty"`
	// Trace is the request's stage trace under ?trace=1. It rides in the
	// trailer — not the header — because the stream span is still open when
	// the header line goes out.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// streamWriter emits NDJSON lines, flushing each so the response is
// actually chunked to the client rather than buffered whole. A write error
// (dead connection) latches: subsequent lines are dropped.
type streamWriter struct {
	enc *json.Encoder
	fl  http.Flusher
	err error
}

// newStreamWriter commits the 200 status line of an NDJSON response and
// counts the stream as begun.
func (s *server) newStreamWriter(w http.ResponseWriter) *streamWriter {
	s.streams.Inc()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	return &streamWriter{enc: json.NewEncoder(w), fl: fl}
}

// line writes one NDJSON line (Encode appends the newline) and reports
// whether the client is still there.
func (sw *streamWriter) line(v any) bool {
	if sw.err != nil {
		return false
	}
	if sw.err = sw.enc.Encode(v); sw.err != nil {
		return false
	}
	if sw.fl != nil {
		sw.fl.Flush()
	}
	return true
}

// abort terminates a stream the client abandoned: best-effort 499 trailer,
// and the counter that makes these visible in /v1/stats.
func (s *server) abort(sw *streamWriter, count int, err error) {
	s.aborted.Inc()
	trailer := streamTrailerJSON{Count: count, Status: statusClientClosedRequest}
	if err != nil {
		trailer.Error = err.Error()
	} else {
		trailer.Error = "client closed request"
	}
	sw.err = nil // the context died; the pipe may still drain the trailer
	sw.line(trailer)
}

// streamTopK writes an answered topk query as NDJSON: the header line, one
// line per ranked entry and the trailer, from the one-query BatchTopK
// result the handler already holds, so every error came back before the
// first byte. Under ?trace=1 the query's trace, with the emission loop as
// its "stream" span, rides in the trailer; start is the instant its total
// time runs from.
func (s *server) streamTopK(w http.ResponseWriter, r *http.Request, g *simstar.Graph, q simstar.Query, res simstar.Result, tolerance, degraded bool, start time.Time) {
	sw := s.newStreamWriter(w)
	if !sw.line(streamHeaderJSON{
		Measure:  q.Measure,
		Node:     q.Node,
		Label:    labelOf(g, q.Node),
		K:        q.K,
		Cached:   res.Cached,
		MaxError: res.MaxError,
		Degraded: degraded,
	}) {
		s.aborted.Inc()
		return
	}
	count := 0
	emit := time.Now()
	for _, rk := range res.Top {
		// The drain hard cap force-closes even a healthy stream: the 499
		// trailer tells the client the server, not the network, ended it.
		if s.drainForced.Load() {
			s.abort(sw, count, errDraining)
			return
		}
		if err := r.Context().Err(); err != nil {
			s.abort(sw, count, err)
			return
		}
		entry := streamEntryJSON{Node: rk.Node, Label: labelOf(g, rk.Node), Score: rk.Score}
		if tolerance {
			me := res.MaxError
			entry.MaxError = &me
		}
		if !sw.line(entry) {
			s.aborted.Inc()
			return
		}
		count++
	}
	if tr := q.Trace; tr != nil {
		tr.AddSpan("stream", time.Since(emit))
		tr.Finish(start)
	}
	sw.line(streamTrailerJSON{Done: true, Count: count, Trace: q.Trace})
}

// streamBatch unrolls an assembled batch response into NDJSON: header, one
// indexed line per query slot, trailer. Result lines stream in query order
// with a context check between each, so a consumer of a long batch starts
// acting on early results while later ones are still in flight on the wire.
func (s *server) streamBatch(w http.ResponseWriter, r *http.Request, results []batchResultJSON, tr *obs.Trace, start time.Time) {
	sw := s.newStreamWriter(w)
	if !sw.line(streamBatchHeaderJSON{Count: len(results)}) {
		s.aborted.Inc()
		return
	}
	count := 0
	emit := time.Now()
	for i := range results {
		if s.drainForced.Load() {
			s.abort(sw, count, errDraining)
			return
		}
		if err := r.Context().Err(); err != nil {
			s.abort(sw, count, err)
			return
		}
		if !sw.line(streamBatchEntryJSON{Index: i, batchResultJSON: results[i]}) {
			s.aborted.Inc()
			return
		}
		count++
	}
	if tr != nil {
		// The batch handler already timed the engine call; the emission loop
		// is the serving stage it could not see.
		tr.AddSpan("stream", time.Since(emit))
		tr.Finish(start)
	}
	sw.line(streamTrailerJSON{Done: true, Count: count, Trace: tr})
}
