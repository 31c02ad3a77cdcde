package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/simstar"
)

// The workload model: each worker owns ONE seeded rand.Rand (and the zipf
// sampler drawn from it) and generates its whole op stream up front, before
// any timing starts. Sampling never races execution, so
// -profile tiny -seed 1 replays the identical op sequence on every run and
// every machine — the property the workload checksum certifies.

// opKind enumerates the serving-path surfaces a workload mixes.
type opKind int

const (
	opSingle    opKind = iota // exact single-source score vector
	opTopK                    // materialised ranked top-k
	opStream                  // NDJSON-streamed top-k (one-query BatchTopK in engine mode)
	opBatch                   // multi-query BatchTopK round
	opTolerance               // certified approximate single-source
	opKindCount
)

func (k opKind) String() string {
	switch k {
	case opSingle:
		return "single"
	case opTopK:
		return "topk"
	case opStream:
		return "stream"
	case opBatch:
		return "batch"
	case opTolerance:
		return "tolerance"
	}
	return "unknown"
}

// batchItem is one query slot of a batch op.
type batchItem struct {
	measure string
	node    int
}

// op is one pre-generated unit of load.
type op struct {
	kind    opKind
	measure string
	node    int
	k       int
	batch   []batchItem // opBatch only
	// deadlineMS is the op's deadline budget, stamped on by the chaos
	// scenario (see decorateChaos). Not part of the workload checksum: the
	// sampled stream is the mixed scenario's, chaos only decorates it.
	deadlineMS int
}

// opMeasures are the measures the mix samples from — the fast-path kernels a
// serving deployment would put behind an endpoint. Batch slots alternate
// over the same set.
var opMeasures = []string{
	simstar.MeasureGeometric,
	simstar.MeasureRWR,
	simstar.MeasureExponential,
}

// tolMeasure is what opTolerance queries run — deliberately NOT a member of
// opMeasures. A tolerance query whose measure is also queried exactly can be
// answered from an exact cached vector (the engine's exact-donor probe),
// whose bits differ from the sieved approximate kernel's; which one a given
// op sees would then depend on scheduling, and the result checksum would
// stop being reproducible. A measure the exact mix never touches keeps the
// certified path deterministic.
const tolMeasure = simstar.MeasureGeometricMemo

// mixWeights is the op mix in percent, indexed by opKind. A batch op counts
// as one op for throughput purposes (it is one request).
var mixWeights = [opKindCount]int{
	opSingle:    25,
	opTopK:      25,
	opStream:    20,
	opBatch:     15,
	opTolerance: 15,
}

// profile is a named workload size. The graph itself is always built with
// the fixed benchGraph seed (shared with the simstar kernel benchmarks) —
// the -seed flag moves only the sampling, so two seeds exercise the same
// graph.
type profile struct {
	name       string
	nodes      int
	deg        int
	ops        int
	workers    int
	k          int
	batchSize  int
	zipfS      float64 // zipf skew (s > 1)
	zipfV      float64 // zipf value offset (v >= 1)
	tolerance  float64 // certified bound for opTolerance queries
	churnBatch int     // edits per churn round
	churnPause time.Duration
	openRate   float64 // ops/sec for the open-loop scenario; 0 = closed only
}

var profiles = map[string]profile{
	"tiny": {
		name: "tiny", nodes: 2_000, deg: 4,
		ops: 480, workers: 4, k: 10, batchSize: 8,
		zipfS: 1.2, zipfV: 1, tolerance: 1e-3,
		churnBatch: 16, churnPause: 2 * time.Millisecond,
	},
	"small": {
		name: "small", nodes: 20_000, deg: 4,
		ops: 1_600, workers: 4, k: 20, batchSize: 8,
		zipfS: 1.2, zipfV: 1, tolerance: 1e-3,
		churnBatch: 32, churnPause: 2 * time.Millisecond,
		openRate: 200,
	},
	"medium": {
		name: "medium", nodes: 100_000, deg: 3,
		ops: 2_400, workers: 8, k: 50, batchSize: 16,
		zipfS: 1.1, zipfV: 1, tolerance: 1e-3,
		churnBatch: 64, churnPause: 5 * time.Millisecond,
		openRate: 400,
	},
}

// scenario is one timed pass over the profile's op budget.
type scenario struct {
	name  string
	churn bool    // race a concurrent edit stream against the queries
	rate  float64 // > 0: open loop at this many ops/sec overall
	chaos bool    // decorate ops with deadlines and keep the chaos ledger
}

// scenariosFor lists the profile's scenarios: the closed-loop baseline, the
// same mix racing churn, and — when the profile sets a rate — an open-loop
// pass that charges queueing delay to latency.
func scenariosFor(p profile) []scenario {
	scs := []scenario{
		{name: "mixed"},
		{name: "mixed_churn", churn: true},
	}
	if p.openRate > 0 {
		scs = append(scs, scenario{name: "mixed_open", rate: p.openRate})
	}
	return scs
}

// workerSeed derives the one rng seed a worker uses, folding the scenario
// name so mixed and mixed_churn sample independent streams.
func workerSeed(seed int64, scenarioName string, worker int) int64 {
	h := fnv.New64a()
	h.Write([]byte(scenarioName))
	return seed*1_000_003 + int64(h.Sum64()%99_991) + int64(worker)
}

// opsForWorker splits the op budget across workers, front-loading the
// remainder so counts differ by at most one.
func opsForWorker(total, workers, worker int) int {
	base := total / workers
	if worker < total%workers {
		base++
	}
	return base
}

// genOps produces one worker's deterministic op stream. Every random draw —
// kind, measure, zipfian node — comes from the single rng, in a fixed
// order, so the stream is a pure function of (profile, scenario, seed,
// worker).
func genOps(p profile, scenarioName string, seed int64, worker int) []op {
	rng := rand.New(rand.NewSource(workerSeed(seed, scenarioName, worker)))
	zipf := rand.NewZipf(rng, p.zipfS, p.zipfV, uint64(p.nodes-1))
	count := opsForWorker(p.ops, p.workers, worker)
	ops := make([]op, count)
	for i := range ops {
		ops[i] = genOp(rng, zipf, p)
	}
	return ops
}

func genOp(rng *rand.Rand, zipf *rand.Zipf, p profile) op {
	kind := pickKind(rng)
	o := op{
		kind:    kind,
		measure: opMeasures[rng.Intn(len(opMeasures))],
		node:    int(zipf.Uint64()),
		k:       p.k,
	}
	if kind == opTolerance {
		o.measure = tolMeasure
	}
	if kind == opBatch {
		o.batch = make([]batchItem, p.batchSize)
		for j := range o.batch {
			o.batch[j] = batchItem{
				measure: opMeasures[j%len(opMeasures)],
				node:    int(zipf.Uint64()),
			}
		}
	}
	return o
}

func pickKind(rng *rand.Rand) opKind {
	r := rng.Intn(100)
	for k := opKind(0); k < opKindCount; k++ {
		if r < mixWeights[k] {
			return k
		}
		r -= mixWeights[k]
	}
	return opSingle
}

// hashInto folds the op into a worker's FNV stream for the workload
// checksum.
func (o *op) hashInto(h hash.Hash64) {
	var buf [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wr(uint64(o.kind))
	h.Write([]byte(o.measure))
	wr(uint64(o.node))
	wr(uint64(o.k))
	for _, it := range o.batch {
		h.Write([]byte(it.measure))
		wr(uint64(it.node))
	}
}

// workloadChecksum is the XOR of per-worker op-stream hashes: stable across
// runs, and independent of how the scheduler interleaves workers.
func workloadChecksum(p profile, scenarioName string, seed int64) uint64 {
	var sum uint64
	for w := 0; w < p.workers; w++ {
		h := fnv.New64a()
		for _, o := range genOps(p, scenarioName, seed, w) {
			o.hashInto(h)
		}
		sum ^= h.Sum64()
	}
	return sum
}

// churnStream generates the deterministic edit-batch sequence for a churn
// scenario: each round inserts fresh random edges and deletes the oldest
// previously-inserted ones (a ring), so the graph drifts without growing
// unboundedly and every node id stays < p.nodes.
type churnStream struct {
	rng      *rand.Rand
	nodes    int
	batch    int
	inserted [][2]int // ring of live inserted edges
}

func newChurnStream(p profile, seed int64) *churnStream {
	return &churnStream{
		rng:   rand.New(rand.NewSource(seed*7_919 + 101)),
		nodes: p.nodes,
		batch: p.churnBatch,
	}
}

// next returns one round's insertions and deletions.
func (c *churnStream) next() (insert, del [][2]int) {
	for i := 0; i < c.batch/2; i++ {
		e := [2]int{c.rng.Intn(c.nodes), c.rng.Intn(c.nodes)}
		insert = append(insert, e)
	}
	// Delete up to batch/2 of the oldest still-live inserted edges, once
	// enough have accumulated to keep the ring from draining.
	c.inserted = append(c.inserted, insert...)
	if len(c.inserted) > 4*c.batch {
		n := c.batch / 2
		del = append(del, c.inserted[:n]...)
		c.inserted = append(c.inserted[:0], c.inserted[n:]...)
	}
	return insert, del
}
