// Command simserve serves simstar similarity queries over HTTP/JSON: the
// serving layer the ROADMAP's north star asks for, put on top of the
// Engine's amortised preprocessing and the MultiSource/BatchTopK batch
// paths. One process serves one graph at a time; loading a new graph swaps
// in a freshly-preprocessed engine (and with it a fresh result cache)
// without interrupting queries already running against the old one, and
// streamed edge mutations evolve the served graph in place through the
// dyngraph versioned store — each batch materialises a new epoch whose
// preprocessing is refreshed incrementally, never rebuilt.
//
// Endpoints:
//
//	GET    /healthz          liveness + whether a graph is loaded
//	GET    /metrics          Prometheus text exposition: request, engine and kernel metrics
//	GET    /v1/measures      registered measure names
//	GET    /v1/stats         engine preprocessing + epoch + result-cache + process stats
//	POST   /v1/graph         load/replace the graph (JSON edges or text edge list)
//	POST   /v1/edges         stream edge mutations ({"insert": [[u,v]...], "delete": [[u,v]...]})
//	POST   /v1/snapshot      persist the current epoch to the -snapshot path
//	POST   /v1/query/single  one single-source score vector
//	POST   /v1/query/topk    one ranked top-k query
//	POST   /v1/query/batch   many queries in one request (mode: scores | topk)
//
// With -snapshot, a binary image written by POST /v1/snapshot is reloaded at
// the next start (epoch included), so the server warm-restarts without
// re-parsing an edge list or replaying mutations.
//
// The query endpoints accept ?trace=1, which embeds a per-query stage trace
// (plan/cache/kernel spans plus kernel counters) in the JSON response — in
// the NDJSON trailer for streamed responses. GET /metrics exposes the
// cumulative counters behind those traces in the Prometheus text format;
// they survive graph swaps because every engine shares one observer.
//
// Each request's context flows into the iterative kernels, so a client
// disconnect aborts the computation mid-iteration. SIGINT/SIGTERM drain
// in-flight requests before exit (bounded by -drain).
//
// See README.md for curl examples and ARCHITECTURE.md for the request
// lifecycle and the dyngraph epoch design.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers used by -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/simstar"
)

func main() {
	addr := flag.String("addr", ":8451", "listen address")
	graphPath := flag.String("graph", "", "edge-list file to serve at startup (optional; POST /v1/graph works any time)")
	snapPath := flag.String("snapshot", "", "binary snapshot path: loaded at startup if present (overriding -graph), written by POST /v1/snapshot")
	c := flag.Float64("c", 0, "damping factor for the startup engine (0 = paper default)")
	k := flag.Int("k", 0, "iteration count for the startup engine (0 = paper default)")
	cacheSize := flag.Int("cache", 0, "result-cache capacity in entries (0 = default, negative = disabled)")
	drain := flag.Duration("drain", 10*time.Second, "how long shutdown waits for in-flight requests")
	drainGrace := flag.Duration("drain-grace", time.Second, "after the drain window, how long force-closed NDJSON streams get to emit their 499 trailer before connections are cut")
	pprofAddr := flag.String("pprof", "", "optional listen address for net/http/pprof (e.g. localhost:6060); profiling is off when empty")
	admitLimit := flag.Int("admit-limit", 0, "admission concurrency limit in weight tokens for the query endpoints (0 = no admission control)")
	admitQueue := flag.Int("admit-queue", 64, "bounded admission queue: requests past this depth shed with 429")
	admitWait := flag.Duration("admit-wait", 100*time.Millisecond, "max time a request may wait in the admission queue before shedding with 503")
	degradeHigh := flag.Int("degrade-high", 0, "queue depth at which the governor degrades eligible exact queries to the certified approximate path (0 = never degrade)")
	degradeLow := flag.Int("degrade-low", 0, "queue depth at which the governor exits degraded mode (hysteresis)")
	degradeTol := flag.Float64("degrade-tolerance", 1e-3, "certified error ceiling for degraded queries (at least 1e-9 when -degrade-high > 0)")
	faultSpec := flag.String("fault", "", "fault-injection spec, e.g. 'kernel.panic:0.02,kernel.slow:0.1:2ms,snapshot.err:x2' (empty = no injection)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed of the deterministic fault schedule")
	snapRetries := flag.Int("snapshot-retries", 2, "startup snapshot read retries before giving up")
	flag.Parse()

	// Opt-in profiling sidecar: the pprof handlers live on their own
	// listener (http.DefaultServeMux), never on the serving mux, so enabling
	// profiling on localhost exposes nothing on the query port.
	if *pprofAddr != "" {
		go func() {
			log.Printf("simserve: pprof listening on %s (/debug/pprof/)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("simserve: pprof server: %v", err)
			}
		}()
	}

	injector, err := fault.Parse(*faultSeed, *faultSpec)
	if err != nil {
		log.Fatalf("simserve: %v", err)
	}
	if injector != nil {
		log.Printf("simserve: fault injection armed: %s (seed %d)", injector, *faultSeed)
	}

	srv := newServer()
	srv.snapPath = *snapPath
	srv.logRequests = true
	srv.faultHook = injector.Hook()
	srv.adm, err = newAdmission(admissionConfig{
		Limit:            *admitLimit,
		Queue:            *admitQueue,
		Wait:             *admitWait,
		DegradeHigh:      *degradeHigh,
		DegradeLow:       *degradeLow,
		DegradeTolerance: *degradeTol,
	})
	if err != nil {
		log.Fatalf("simserve: %v", err)
	}
	opts := func() []simstar.Option {
		var opts []simstar.Option
		if *c > 0 {
			opts = append(opts, simstar.WithC(*c))
		}
		if *k > 0 {
			opts = append(opts, simstar.WithK(*k))
		}
		if *cacheSize != 0 {
			opts = append(opts, simstar.WithCacheSize(*cacheSize))
		}
		return opts
	}
	if err := checkIterations(nil, opts()); err != nil {
		log.Fatalf("simserve: -k: %v", err)
	}
	if *c >= 1 {
		log.Fatalf("simserve: -c %g outside (0, 1)", *c)
	}

	// Startup graph: a warm-restart snapshot wins over -graph, because it is
	// the later state — it carries the epochs of every mutation served since
	// the edge list was first loaded.
	switch {
	case *snapPath != "", *graphPath != "":
		var (
			g     *simstar.Graph
			epoch uint64
			src   string
			err   error
		)
		if *snapPath != "" {
			g, epoch, err = loadSnapshot(*snapPath, injector, *snapRetries)
			src = *snapPath
			if err != nil && !os.IsNotExist(err) {
				log.Fatalf("simserve: %s: %v", *snapPath, err)
			}
		}
		if g == nil && *graphPath != "" {
			g, err = loadEdgeList(*graphPath)
			src = *graphPath
			if err != nil {
				log.Fatalf("simserve: %s: %v", *graphPath, err)
			}
		}
		if g != nil {
			engOpts := srv.engineOptions(append(opts(), simstar.WithBaseEpoch(epoch)))
			eng := simstar.NewEngine(g, engOpts...)
			srv.swap(eng, false, engOpts...)
			st := eng.Stats()
			log.Printf("simserve: serving %s: %d nodes, %d edges, epoch %d",
				src, st.Nodes, st.Edges, st.Epoch)
		}
	}

	runServer(srv, *addr, *drain, *drainGrace)
}

// loadEdgeList reads a startup graph in the text edge-list format.
func loadEdgeList(path string) (*simstar.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return simstar.ReadGraph(f)
}

// loadSnapshot reads a warm-restart binary snapshot with bounded
// retry-and-backoff: a transient read failure (flaky disk, fault injection)
// re-opens the file up to retries more times, doubling a 50ms backoff
// between attempts, while a missing file is reported immediately with
// os.IsNotExist so the caller can fall back to -graph. The strict snapshot
// framing makes the retry safe — a partially-read or corrupt image can
// never validate, so the only snapshot a retry can load is a whole one.
func loadSnapshot(path string, injector *fault.Injector, retries int) (*simstar.Graph, uint64, error) {
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			log.Printf("simserve: %s: retrying snapshot read in %v (attempt %d/%d): %v",
				path, backoff, attempt+1, retries+1, lastErr)
			time.Sleep(backoff)
			backoff *= 2
		}
		g, epoch, err := readSnapshotOnce(path, injector)
		if err == nil {
			return g, epoch, nil
		}
		if os.IsNotExist(err) {
			return nil, 0, err
		}
		lastErr = err
	}
	return nil, 0, fmt.Errorf("snapshot read failed after %d attempts: %w", retries+1, lastErr)
}

// readSnapshotOnce is one snapshot read attempt, with the fault injector's
// reader wrapped around the file when injection is armed.
func readSnapshotOnce(path string, injector *fault.Injector) (*simstar.Graph, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return simstar.ReadSnapshot(injector.Reader(f))
}

// runServer serves until SIGINT/SIGTERM, then drains in three stages: shed
// new query work immediately, wait up to drain for in-flight requests, and
// past that force-close NDJSON streams (in-band 499 trailer) with grace to
// flush before connections are cut.
func runServer(srv *server, addr string, drain, grace time.Duration) {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("simserve: listening on %s", addr)

	select {
	case err := <-errc:
		log.Fatalf("simserve: %v", err)
	case <-ctx.Done():
	}
	log.Printf("simserve: shutting down (draining up to %v)", drain)
	// Stage 1: shed all new query work so the drain window belongs to the
	// requests already in flight.
	srv.beginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			httpSrv.Close()
			log.Fatalf("simserve: shutdown: %v", err)
		}
		// Stage 2: drain window exhausted. Force NDJSON streams to end
		// themselves with an in-band 499 trailer, give them grace to flush
		// it, then cut whatever is left — cancelling the stragglers'
		// request contexts and thereby their kernels.
		fmt.Fprintln(os.Stderr, "simserve: drain window exhausted, force-closing streams")
		srv.forceDrain()
		time.Sleep(grace)
		httpSrv.Close()
	}
}
