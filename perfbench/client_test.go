package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// The client reads materialised and chunked (streamed) answers over one
// connection, and dials again only after the server closes it.
func TestClientKeepsOneConnection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch {
		case r.URL.Path == "/close":
			w.Header().Set("Connection", "close")
			io.WriteString(w, "{}")
		case strings.Contains(string(body), `"stream":true`):
			// Flushing between lines makes the response chunked.
			for _, l := range []string{`{"maxError":0}`, `{"node":3,"score":0.5}`, `{"node":1,"score":0.25}`, `{"done":true,"count":2}`} {
				io.WriteString(w, l+"\n")
				w.(http.Flusher).Flush()
			}
		default:
			io.WriteString(w, `{"top":[{"node":3,"score":0.5},{"node":1,"score":0.25}]}`)
		}
	}))
	defer srv.Close()
	c := newClient(context.Background(), srv.Listener.Addr().String())
	defer c.close()

	read := func(stream bool) result {
		o := op{Kind: opTopK, Stream: stream, Q: []query{{Class: classRWR, Node: 7}}}
		path, body, err := encode(&o)
		if err != nil {
			t.Fatal(err)
		}
		return c.do(&o, path, body, false)
	}
	want := []ranked{{Node: 3, Score: 0.5}, {Node: 1, Score: 0.25}}
	for i := 0; i < 4; i++ {
		res := read(i%2 == 1)
		if res.Err != nil {
			t.Fatalf("read %d: %v", i, res.Err)
		}
		if !reflect.DeepEqual(res.Answers[0].Top, want) {
			t.Errorf("read %d answered %v, want %v", i, res.Answers[0].Top, want)
		}
	}
	if c.dials != 1 {
		t.Errorf("%d dials for four reads, want 1", c.dials)
	}

	var v struct{}
	if err := c.getJSON("/close", &v); err != nil {
		t.Fatal(err)
	}
	if res := read(false); res.Err != nil || c.dials != 2 {
		t.Errorf("after the server closed the connection: err %v, %d dials, want 2", res.Err, c.dials)
	}
}
