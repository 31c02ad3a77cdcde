package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// layerUnits is the unit of every per-layer metric; its keys are exactly
// the metrics --trace 1 prints.
var layerUnits = map[string]string{
	"simserve.transport_ms_p50":   "ms",
	"simserve.query_handler_ms":   "ms",
	"simserve.edges_handler_ms":   "ms",
	"simserve.resp_bytes":         "bytes",
	"simstar.cache_hit_ratio":     "ratio",
	"simstar.cache_hits":          "count",
	"simstar.cache_lookups":       "count",
	"simstar.cache_ms_p50":        "ms",
	"simstar.select_ms_p50":       "ms",
	"simstar.batch_ms_p50":        "ms",
	"simstar.routes_blocked":      "count",
	"simstar.routes_fanout":       "count",
	"simstar.refresh_ms_p50":      "ms",
	"simstar.epochs":              "count",
	"simstar.into_ms_p50":         "ms",
	"kernel.ws_ms_p50":            "ms",
	"kernel.gsimrank_ms_p50":      "ms",
	"kernel.esimrank_ms_p50":      "ms",
	"kernel.rwr_ms_p50":           "ms",
	"kernel.sieved_ms_p50":        "ms",
	"kernel.streamed_ms_p50":      "ms",
	"kernel.sweeps_per_miss":      "count",
	"kernel.frontier_max_p50":     "count",
	"kernel.busy_share":           "ratio",
	"sparse.sweep_ns_per_nnz":     "ns/nnz",
	"sparse.panel_ns_per_nnz_col": "ns/nnz/col",
	"sparse.update_ms_p50":        "ms",
	"graph.apply_edits_ms_p50":    "ms",
	"dyngraph.apply_ms_p50":       "ms",
	"graph.read_ms":               "ms",
	"sparse.transition_ms":        "ms",
	"biclique.compress_ms":        "ms",
	"server.cpu_ms_per_req":       "ms",
	"client.cpu_ms_per_req":       "ms",
	"client.latency_p90_ms":       "ms",
	"client.throughput_qps":       "1/s",
	"client.latency_p99_ms":       "ms",
	"trace.overhead_pct":          "%",
	"host.alu_ms":                 "ms",
	"host.mem_ms":                 "ms",
}

// histMean is a /metrics histogram's mean over the interval between two
// scrapes, in ms, summed over the given label sets.
func histMean(a, b scrape, name string, labels ...string) float64 {
	var sum, count float64
	for _, l := range labels {
		sum += b.metrics[name+"_sum"+l] - a.metrics[name+"_sum"+l]
		count += b.metrics[name+"_count"+l] - a.metrics[name+"_count"+l]
	}
	return sum / count * 1e3
}

// perLayer fills the per-layer metrics of the traced run from the untraced
// pass pu (counters, CPU, response sizes) and the traced pass pt (spans),
// and returns the request spans and the load checks: the evidence that
// each workload loads the layer it was chosen for.
func perLayer(ops []op, pu, pt *phaseOut, m map[string]float64) ([]span, map[string]any) {
	timed, readsU := 0, []float64{}
	var bytes float64
	for i, o := range ops {
		if o.Phase != phaseTimed {
			continue
		}
		timed++
		if r := &pu.results[i]; o.Kind != opEdit && r.Err == nil {
			readsU = append(readsU, ms(r.Latency))
			bytes += float64(r.Bytes)
		}
	}
	m["simserve.query_handler_ms"] = histMean(pu.before, pu.after, "simserve_request_seconds", `{route="topk"}`, `{route="batch"}`)
	m["simserve.edges_handler_ms"] = histMean(pu.before, pu.end, "simserve_request_seconds", `{route="edges"}`)
	m["simserve.resp_bytes"] = bytes / float64(len(readsU))
	hits, lookups := pu.after.hits-pu.before.hits, pu.after.lookups-pu.before.lookups
	m["simstar.cache_hits"], m["simstar.cache_lookups"] = hits, lookups
	m["simstar.cache_hit_ratio"] = hits / lookups
	kernelS := pu.after.metrics["simstar_kernel_seconds_sum"] - pu.before.metrics["simstar_kernel_seconds_sum"]
	m["kernel.busy_share"] = kernelS / pu.wall.Seconds()
	m["server.cpu_ms_per_req"] = ms(pu.after.serverCPU-pu.before.serverCPU) / float64(timed)
	m["client.cpu_ms_per_req"] = ms(pu.after.clientCPU-pu.before.clientCPU) / float64(timed)
	m["client.latency_p90_ms"], m["client.throughput_qps"] = tailAndRate(ops, pu)
	m["client.latency_p99_ms"] = percentile(readsU, 99)
	m["trace.overhead_pct"] = (1 - pu.wall.Seconds()/pt.wall.Seconds()) * 100

	var (
		spans                                []span
		transport, cacheMs, selectMs, batch  []float64
		refresh, streamed, frontier          []float64
		kernel                               [numClasses][]float64
		sweeps, misses, blocked, fanout      float64
		epochs                               uint64
		readRoots                            []int
		timedReads, timedCached              int
		kernelMat, latMat, kernelStr, latStr float64
	)
	for i, o := range ops {
		r := &pt.results[i]
		if r.Err != nil {
			continue
		}
		root := span{ID: len(spans) + 1, Req: i, Name: opClass(&o), Start: us(r.Start), Dur: us(r.Latency)}
		spans = append(spans, root)
		if o.Kind == opEdit {
			refresh = append(refresh, r.RefreshMs)
			epochs = max(epochs, r.Epoch)
			continue
		}
		tr := r.Trace
		if tr == nil {
			continue
		}
		server := span{ID: len(spans) + 1, Parent: root.ID, Req: i, Name: "server", Dur: tr.TotalUs}
		spans = append(spans, server)
		for _, s := range tr.Spans {
			spans = append(spans, span{ID: len(spans) + 1, Parent: server.ID, Req: i, Name: s.Stage, Dur: s.DurationUs})
		}
		readRoots = append(readRoots, root.ID)
		if o.Phase == phaseTimed {
			timedReads++
			if tr.Cached {
				timedCached++
			}
		}
		if o.Kind == opBatch {
			batch = append(batch, tr.TotalUs/1e3)
			routes := planRoutes(tr.Plan)
			blocked += float64(routes["blocked"])
			fanout += float64(routes["fanout"])
			continue
		}
		k, hasKernel := tr.span("kernel")
		if o.Phase == phaseTimed {
			if o.Stream {
				kernelStr, latStr = kernelStr+k, latStr+us(r.Latency)
			} else {
				kernelMat, latMat = kernelMat+k, latMat+us(r.Latency)
			}
		}
		if o.Stream {
			if hasKernel && !tr.Cached {
				streamed = append(streamed, k/1e3)
			}
			continue
		}
		if v, ok := tr.span("cache"); ok {
			cacheMs = append(cacheMs, v/1e3)
		}
		if v, ok := tr.span("select"); ok {
			selectMs = append(selectMs, v/1e3)
		}
		if hasKernel && !tr.Cached {
			kernel[o.Q[0].Class] = append(kernel[o.Q[0].Class], k/1e3)
			sweeps += float64(tr.Kernel.Sweeps)
			misses++
			if tr.Kernel.FrontierMax > 0 {
				frontier = append(frontier, float64(tr.Kernel.FrontierMax))
			}
		}
	}
	// A read's transport time is its root span's self time: the round
	// trip minus the server's total.
	self := selfTimes(spans)
	for _, id := range readRoots {
		transport = append(transport, self[id]/1e3)
	}
	m["simserve.transport_ms_p50"] = median(transport)
	m["simstar.cache_ms_p50"] = median(cacheMs)
	m["simstar.select_ms_p50"] = median(selectMs)
	m["simstar.batch_ms_p50"] = median(batch)
	m["simstar.routes_blocked"], m["simstar.routes_fanout"] = blocked, fanout
	m["simstar.refresh_ms_p50"] = median(refresh)
	m["simstar.epochs"] = float64(epochs)
	for c := class(0); c < numClasses; c++ {
		m["kernel."+classNames[c]+"_ms_p50"] = median(kernel[c])
	}
	m["kernel.streamed_ms_p50"] = median(streamed)
	m["kernel.sweeps_per_miss"] = sweeps / misses
	m["kernel.frontier_max_p50"] = median(frontier)

	edits := 0
	for _, o := range ops {
		if o.Kind == opEdit {
			edits++
		}
	}
	load := map[string]any{
		"timed_reads_cached":         timedCached,
		"timed_reads_traced":         timedReads,
		"kernel_share_materialised":  share(kernelMat, latMat),
		"kernel_share_streamed":      share(kernelStr, latStr),
		"edit_requests":              edits,
		"epochs_equal_edit_requests": int(epochs) == edits,
		"routes_blocked":             blocked,
		"cache_hit_ratio":            m["simstar.cache_hit_ratio"],
		"transport_self_ms_p50":      m["simserve.transport_ms_p50"],
		"server_unstaged_share":      untracedShare(spans, self),
	}
	return spans, load
}

// untracedShare is the server spans' self time as a share of their
// duration: the part of the server's total no stage span covers.
func untracedShare(spans []span, self map[int]float64) float64 {
	var selfSum, total float64
	for _, s := range spans {
		if s.Name == "server" {
			selfSum += self[s.ID]
			total += s.Dur
		}
	}
	return share(selfSum, total)
}

// share is a/b, or 0 when b is: a load check with nothing to measure.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// commitOf names the code under test: the git commit when the checkout is
// a repository, and always the SHA-256 of its Go sources and go.mod files,
// which identifies a checkout that is not.
func commitOf(root string) map[string]string {
	out := map[string]string{}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if b, err := cmd.Output(); err == nil {
			out["git"] = strings.TrimSpace(string(b))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
	}
	out["source_sha256"] = hex.EncodeToString(h.Sum(nil))
	return out
}
