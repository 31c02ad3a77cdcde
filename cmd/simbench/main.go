// Command simbench is the production-workload harness for the serving path:
// it drives a mixed stream of single-source, top-k (materialised and
// streamed), batch and certified-tolerance queries from zipfian-sampled
// sources against either an in-process engine (-mode engine) or a running
// simserve (-mode http), optionally racing a concurrent edit-churn stream,
// and reports latency percentiles, throughput, cache hit rate and allocation
// counts as schema-versioned JSON.
//
// Workload sampling is fully deterministic: one seeded rand.Rand per worker,
// generated before timing starts, so `simbench -profile tiny -seed 1`
// replays the identical op stream on every run (the report's
// workload_checksum certifies it, and result_checksum certifies the
// answers' bits on churn-free scenarios).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/simstar"
)

// benchGraph mirrors the simstar package's BenchmarkEngineSingleSource100k
// graph — local structure behind scrambled ids, fixed seed — so kernel
// benchmarks and serving benchmarks measure the same topology. It also returns the edge list, which
// -mode http uploads to the server under test.
func benchGraph(n, deg int) (*simstar.Graph, [][2]int) {
	rng := rand.New(rand.NewSource(271828))
	shuf := rng.Perm(n)
	edges := make([][2]int, 0, n*deg)
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			v := u + 1 + rng.Intn(64)
			if v >= n {
				v -= n
			}
			edges = append(edges, [2]int{shuf[u], shuf[v]})
		}
	}
	return simstar.GraphFromEdges(n, edges), edges
}

// workerOut is one worker's timed results.
type workerOut struct {
	durations []time.Duration
	resHash   uint64
	errs      int
	kinds     [opKindCount]int
	chaos     chaosJSON // chaos scenarios: this worker's failure ledger
}

// runWorker executes one worker's pre-generated op stream. In closed-loop
// mode each op starts when the previous one finished; in open-loop mode ops
// have intended start times on a fixed schedule and latency is measured from
// the intended start, so a slow server accrues queueing delay instead of
// quietly slowing the load down.
func runWorker(ctx context.Context, t target, p profile, sc scenario, seed int64, worker int, start time.Time, digest bool) workerOut {
	ops := genOps(p, sc.name, seed, worker)
	if sc.chaos {
		decorateChaos(ops)
	}
	out := workerOut{durations: make([]time.Duration, 0, len(ops))}
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	fold := uint64(fnvOffset)
	for i, o := range ops {
		opStart := time.Now()
		if sc.rate > 0 {
			intended := start.Add(time.Duration(float64(i*p.workers+worker) / sc.rate * float64(time.Second)))
			if d := time.Until(intended); d > 0 {
				time.Sleep(d)
			}
			opStart = intended
		}
		dg, err := t.run(ctx, o)
		out.durations = append(out.durations, time.Since(opStart))
		out.kinds[o.kind]++
		if err != nil {
			out.errs++
			if sc.chaos {
				classifyChaosErr(err, &out.chaos)
			}
			continue
		}
		fold = (fold ^ dg) * fnvPrime
	}
	if digest {
		out.resHash = fold
	}
	return out
}

// churnOut is what the churn goroutine hands back when stopped.
type churnOut struct {
	cj   churnJSON
	errs int
}

// runChurn streams deterministic edit batches at the target until stopped,
// pausing churnPause between rounds so refreshes interleave with queries
// rather than monopolising the store.
func runChurn(ctx context.Context, t target, p profile, seed int64, stop <-chan struct{}) churnOut {
	cs := newChurnStream(p, seed)
	var out churnOut
	var sumRefresh float64
	for {
		select {
		case <-stop:
			if out.cj.Batches > 0 {
				out.cj.AvgRefreshMs = sumRefresh / float64(out.cj.Batches)
			}
			return out
		default:
		}
		insert, del := cs.next()
		delta, err := t.applyChurn(ctx, insert, del)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: churn: %v\n", err)
			out.errs++
			if out.cj.Batches > 0 {
				out.cj.AvgRefreshMs = sumRefresh / float64(out.cj.Batches)
			}
			return out
		}
		out.cj.Batches++
		out.cj.Edits += delta.applied
		out.cj.FinalEpoch = delta.epoch
		sumRefresh += delta.refreshMs
		time.Sleep(p.churnPause)
	}
}

// runScenario executes one scenario end to end and aggregates the report
// row. measureAllocs turns on runtime.MemStats deltas — meaningful for
// -mode engine, where the process under measurement is the serving path
// (under churn the delta includes the churn goroutine's refresh work).
func runScenario(t target, p profile, sc scenario, seed int64, measureAllocs bool) scenarioJSON {
	ctx := context.Background()
	hits0, misses0, cacheOK := t.cacheCounters()
	metrics0, metricsOK := t.metricsSnapshot()

	var m0, m1 runtime.MemStats
	if measureAllocs {
		runtime.ReadMemStats(&m0)
	}

	stop := make(chan struct{})
	churnCh := make(chan churnOut, 1)
	if sc.churn {
		go func() { churnCh <- runChurn(ctx, t, p, seed, stop) }()
	}
	// Chaos scenarios poll liveness for the whole run when the target has a
	// health endpoint (http mode): the server must answer /healthz however
	// badly the query plane is faulted.
	proberCh := make(chan proberOut, 1)
	probing := false
	if sc.chaos {
		if hp, ok := t.(healthProber); ok {
			probing = true
			go func() { proberCh <- runHealthProber(ctx, hp, stop) }()
		}
	}

	outs := make([]workerOut, p.workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Result digests are meaningless under churn (epoch-dependent)
			// and under chaos (which answers a given op is fault-dependent).
			outs[w] = runWorker(ctx, t, p, sc, seed, w, start, !sc.churn && !sc.chaos)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)

	var churn *churnJSON
	if sc.churn {
		co := <-churnCh
		cj := co.cj
		churn = &cj
		outs[0].errs += co.errs
	}
	if measureAllocs {
		runtime.ReadMemStats(&m1)
	}

	row := scenarioJSON{
		Name:           sc.name,
		Workers:        p.workers,
		OpenRateOpsSec: sc.rate,
		DurationMs:     float64(elapsed.Microseconds()) / 1e3,
		Kinds:          make(map[string]int),
		Churn:          churn,
	}
	var durations []time.Duration
	var resSum uint64
	for _, o := range outs {
		durations = append(durations, o.durations...)
		row.Errors += o.errs
		resSum ^= o.resHash
		for k, n := range o.kinds {
			if n > 0 {
				row.Kinds[opKind(k).String()] += n
			}
		}
	}
	if sc.chaos {
		cj := chaosJSON{}
		for _, o := range outs {
			cj.add(o.chaos)
		}
		if probing {
			po := <-proberCh
			cj.HealthzProbes = po.probes
			cj.HealthzFailures = po.failures
		}
		row.Chaos = &cj
	}
	row.Ops = len(durations)
	row.Latency = summarizeLatency(durations)
	if elapsed > 0 {
		row.ThroughputOpsSec = float64(row.Ops) / elapsed.Seconds()
	}
	row.WorkloadChecksum = checksumHex(workloadChecksum(p, sc.name, seed))
	if !sc.churn && !sc.chaos {
		row.ResultChecksum = checksumHex(resSum)
	}
	if cacheOK {
		hits1, misses1, _ := t.cacheCounters()
		c := cacheJSON{Hits: hits1 - hits0, Misses: misses1 - misses0}
		if total := c.Hits + c.Misses; total > 0 {
			c.HitRate = float64(c.Hits) / float64(total)
		}
		row.Cache = &c
	}
	if measureAllocs && row.Ops > 0 {
		row.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(row.Ops)
		row.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(row.Ops)
	}
	if metricsOK {
		if metrics1, ok := t.metricsSnapshot(); ok {
			row.ServerMetrics = counterDeltas(metrics0, metrics1)
		}
	}
	return row
}

// counterDeltas keeps the positive before/after deltas of the cumulative
// families — counters (_total) and histogram counts (_count). Gauges read
// instantaneous state, not work done, so they are dropped; zero deltas are
// dropped so each row lists only what the scenario exercised.
func counterDeltas(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for key, v1 := range after {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !strings.HasSuffix(name, "_total") && !strings.HasSuffix(name, "_count") {
			continue
		}
		if d := v1 - before[key]; d > 0 {
			out[key] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// filterScenarios keeps the comma-separated names in filter, or all when
// filter is empty.
func filterScenarios(scs []scenario, filter string) []scenario {
	if filter == "" {
		return scs
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(filter, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []scenario
	for _, sc := range scs {
		if want[sc.name] {
			out = append(out, sc)
		}
	}
	return out
}

func main() {
	profileFlag := flag.String("profile", "tiny", "workload profile: tiny, small or medium")
	seed := flag.Int64("seed", 1, "workload sampling seed (the graph is fixed; the seed moves only the queries)")
	mode := flag.String("mode", "engine", "target: engine (in-process) or http (a running simserve)")
	addr := flag.String("addr", "http://localhost:8080", "simserve base URL for -mode http")
	out := flag.String("out", "-", "output path for the JSON report (\"-\", the default, for stdout)")
	note := flag.String("note", "", "free-form context recorded in the report")
	opsFlag := flag.Int("ops", 0, "override the profile's op budget")
	workersFlag := flag.Int("workers", 0, "override the profile's worker count")
	scenariosFlag := flag.String("scenarios", "", "comma-separated scenario filter (default: all)")
	chaosFlag := flag.Bool("chaos", false, "run the chaos scenario instead: the mixed workload with per-op deadlines, scored on the resilience contract (nonzero exit on violations)")
	faultSpec := flag.String("fault", "", "fault-injection spec for -chaos -mode engine, e.g. 'kernel.panic:0.02,kernel.slow:0.05:2ms' (for -mode http start simserve with -fault instead)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed of the deterministic fault schedule")
	flag.Parse()

	p, ok := profiles[*profileFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "simbench: unknown profile %q (want tiny, small or medium)\n", *profileFlag)
		os.Exit(2)
	}
	if *opsFlag > 0 {
		p.ops = *opsFlag
	}
	if *workersFlag > 0 {
		p.workers = *workersFlag
	}

	g, edges := benchGraph(p.nodes, p.deg)
	// engineOpts is the measured engine configuration; the chaos oracle is
	// built with the same options (minus faults) so certificates are checked
	// against the exact kernel the target actually deviates from.
	engineOpts := []simstar.Option{
		simstar.WithMiner(simstar.MinerOptions{
			MinSources: 64, MinTargets: 64, DisablePairMining: true,
		}),
	}
	var t target
	switch *mode {
	case "engine":
		opts := engineOpts
		if *faultSpec != "" {
			injector, err := fault.Parse(*faultSeed, *faultSpec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
				os.Exit(2)
			}
			if injector != nil {
				fmt.Fprintf(os.Stderr, "simbench: fault injection armed: %s (seed %d)\n", injector, *faultSeed)
				opts = append(opts[:len(opts):len(opts)], simstar.WithFaultHook(injector.Hook()))
			}
		}
		t = newEngineTarget(g, p.tolerance, opts...)
	case "http":
		if *faultSpec != "" {
			fmt.Fprintf(os.Stderr, "simbench: -fault applies to -mode engine only; start simserve with -fault to inject server-side\n")
		}
		ht := newHTTPTarget(*addr, p.tolerance)
		fmt.Fprintf(os.Stderr, "simbench: loading %d-node graph onto %s\n", p.nodes, *addr)
		if err := ht.loadGraph(context.Background(), p.nodes, edges); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: loading graph: %v\n", err)
			os.Exit(1)
		}
		t = ht
	default:
		fmt.Fprintf(os.Stderr, "simbench: unknown mode %q (want engine or http)\n", *mode)
		os.Exit(2)
	}

	scs := filterScenarios(scenariosFor(p), *scenariosFlag)
	var oracle *simstar.Engine
	if *chaosFlag {
		// Chaos replaces the benchmark scenarios with one resilience pass,
		// and needs an exact, fault-free oracle for the certificate audit.
		scs = []scenario{{name: "chaos", chaos: true}}
		if *mode == "engine" {
			oracle = simstar.NewEngine(g, engineOpts...)
		} else {
			oracle = simstar.NewEngine(g)
		}
	}

	rep := newReport(p.name, *seed, *mode, g.N(), g.M(), *note)
	for _, sc := range scs {
		fmt.Fprintf(os.Stderr, "simbench: scenario %s (%d ops, %d workers, churn=%v)\n",
			sc.name, p.ops, p.workers, sc.churn)
		row := runScenario(t, p, sc, *seed, *mode == "engine")
		fmt.Fprintf(os.Stderr, "simbench:   %.0f ops/s, p50 %.0fµs p99 %.0fµs, %d errors\n",
			row.ThroughputOpsSec, row.Latency.P50Us, row.Latency.P99Us, row.Errors)
		if sc.chaos && row.Chaos != nil {
			verifyCertificates(context.Background(), t, oracle, p, *seed, row.Chaos)
			cj := row.Chaos
			fmt.Fprintf(os.Stderr, "simbench:   chaos: shed %d/%d, 500s %d, panics %d, deadline misses %d, cert %d ok / %d failed / %d skipped, healthz %d/%d ok\n",
				cj.Shed429, cj.Shed503, cj.Server500, cj.KernelPanics,
				cj.Deadline504+cj.DeadlineExceeded,
				cj.CertChecks-cj.CertFailures, cj.CertFailures, cj.CertSkipped,
				cj.HealthzProbes-cj.HealthzFailures, cj.HealthzProbes)
		}
		rep.Scenarios = append(rep.Scenarios, row)
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: encoding report: %v\n", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(raw); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: writing the report to stdout: %v\n", err)
			os.Exit(1)
		}
	} else {
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "simbench: wrote %s\n", *out)
	}

	// Chaos runs gate CI: any breach of the resilience contract is a
	// nonzero exit, after the report (the evidence) is safely written.
	failed := false
	for _, row := range rep.Scenarios {
		if row.Chaos == nil {
			continue
		}
		for _, v := range row.Chaos.violations() {
			fmt.Fprintf(os.Stderr, "simbench: chaos invariant violated (%s): %s\n", row.Name, v)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
