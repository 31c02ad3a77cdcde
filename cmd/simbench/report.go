package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// benchReport is the schema-versioned output of one simbench run —
// serving-path behaviour under load, the counterpart of the simstar
// package's kernel benchmarks. Some checked-in BENCH_<pr>.json files embed
// it under "serving". Schema history: 1 = latency/cache/churn rows;
// 2 adds per-scenario "server_metrics" counter deltas; 3 adds the chaos
// ledger ("chaos") on -chaos runs.
type benchReport struct {
	Schema    int            `json:"schema"`
	Tool      string         `json:"tool"`
	Go        string         `json:"go"`
	GOOS      string         `json:"goos"`
	GOARCH    string         `json:"goarch"`
	CPUs      int            `json:"cpus"`
	Profile   string         `json:"profile"`
	Seed      int64          `json:"seed"`
	Mode      string         `json:"mode"`
	Nodes     int            `json:"nodes"`
	Edges     int            `json:"edges"`
	Note      string         `json:"note,omitempty"`
	Scenarios []scenarioJSON `json:"scenarios"`
}

// latencyJSON is the per-op latency distribution in microseconds. Under an
// open-loop scenario latencies are measured from each op's intended start
// time, so queueing delay is charged to the server, not hidden
// (coordinated omission).
type latencyJSON struct {
	P50Us  float64 `json:"p50_us"`
	P95Us  float64 `json:"p95_us"`
	P99Us  float64 `json:"p99_us"`
	MaxUs  float64 `json:"max_us"`
	MeanUs float64 `json:"mean_us"`
}

type cacheJSON struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

type churnJSON struct {
	Batches      int     `json:"batches"`
	Edits        int     `json:"edits"`
	FinalEpoch   uint64  `json:"final_epoch"`
	AvgRefreshMs float64 `json:"avg_refresh_ms"`
}

type scenarioJSON struct {
	Name             string         `json:"name"`
	Ops              int            `json:"ops"`
	Errors           int            `json:"errors"`
	Workers          int            `json:"workers"`
	OpenRateOpsSec   float64        `json:"open_rate_ops_sec,omitempty"`
	DurationMs       float64        `json:"duration_ms"`
	ThroughputOpsSec float64        `json:"throughput_ops_sec"`
	Latency          latencyJSON    `json:"latency"`
	Kinds            map[string]int `json:"kinds"`
	Cache            *cacheJSON     `json:"cache,omitempty"`
	AllocsPerOp      float64        `json:"allocs_per_op,omitempty"`
	BytesPerOp       float64        `json:"bytes_per_op,omitempty"`
	Churn            *churnJSON     `json:"churn,omitempty"`
	// WorkloadChecksum fingerprints the generated op stream: same profile,
	// same seed, same checksum — byte-reproducible across runs and, being
	// an XOR of per-worker FNV streams, independent of scheduling.
	WorkloadChecksum string `json:"workload_checksum"`
	// ResultChecksum fingerprints every answer's bits. Omitted under churn,
	// where answers legitimately depend on which epoch served each op.
	ResultChecksum string `json:"result_checksum,omitempty"`
	// ServerMetrics holds the scenario's delta of the serving side's
	// cumulative counter families (keys ending _total or _count, as named
	// by obs.Registry.Snapshot) — in engine mode from the target's own
	// observer, in http mode from a /metrics scrape before and after the
	// run. Gauges and zero deltas are elided so the member stays a
	// cross-checkable statement of what the workload exercised.
	ServerMetrics map[string]float64 `json:"server_metrics,omitempty"`
	// Chaos is the -chaos mode resilience ledger: how every injected fault
	// and shed request was answered, the healthz availability record, and
	// the exact-or-certified audit results.
	Chaos *chaosJSON `json:"chaos,omitempty"`
}

func newReport(profile string, seed int64, mode string, nodes, edges int, note string) benchReport {
	return benchReport{
		Schema:  3,
		Tool:    "simbench",
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Profile: profile,
		Seed:    seed,
		Mode:    mode,
		Nodes:   nodes,
		Edges:   edges,
		Note:    note,
	}
}

// percentile returns the p-th percentile (0..100) of sorted durations by
// nearest-rank, in microseconds.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank].Nanoseconds()) / 1e3
}

func summarizeLatency(durations []time.Duration) latencyJSON {
	if len(durations) == 0 {
		return latencyJSON{}
	}
	sorted := append([]time.Duration(nil), durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return latencyJSON{
		P50Us:  percentile(sorted, 50),
		P95Us:  percentile(sorted, 95),
		P99Us:  percentile(sorted, 99),
		MaxUs:  float64(sorted[len(sorted)-1].Nanoseconds()) / 1e3,
		MeanUs: float64(sum.Nanoseconds()) / float64(len(sorted)) / 1e3,
	}
}

func checksumHex(sum uint64) string { return fmt.Sprintf("%016x", sum) }
