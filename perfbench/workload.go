package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/dyngraph"
	"repro/internal/graph"
)

// g100k is the reference configuration: cmd/simbench's and cmd/benchjson's
// benchGraph(100_000, 3) with seed 271828. The constants are fixed here and
// never resized in place; a different graph is a different configuration.
const (
	graphNodes  = 100_000
	graphDegree = 3
	graphSeed   = 271828
	// graphEdges is what benchGraph yields after deduplication; a mismatch
	// means the generator or the graph builder changed.
	graphEdges = 295_404
)

// topK is the ranking size of every read.
const topK = 20

// tolerance is the certified error ceiling of the tolerance reads.
const tolerance = 1e-3

// buildGraph reproduces benchGraph: local structure (each node links to
// three of its next 64 neighbours) hidden behind a seeded id permutation.
func buildGraph() (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(graphSeed))
	shuf := rng.Perm(graphNodes)
	edges := make([][2]int, 0, graphNodes*graphDegree)
	for u := 0; u < graphNodes; u++ {
		for d := 0; d < graphDegree; d++ {
			v := u + 1 + rng.Intn(64)
			if v >= graphNodes {
				v -= graphNodes
			}
			edges = append(edges, [2]int{shuf[u], shuf[v]})
		}
	}
	g := graph.FromEdges(graphNodes, edges)
	if g.N() != graphNodes || g.M() != graphEdges {
		return nil, fmt.Errorf("g100k has %d nodes and %d edges, want %d and %d", g.N(), g.M(), graphNodes, graphEdges)
	}
	return g, nil
}

// writeEdgeList writes g in the text format simserve -graph reads and
// returns the file's SHA-256, so every run records exactly what it served.
func writeEdgeList(g *graph.Graph, path string) (string, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := graph.WriteEdgeList(io.MultiWriter(f, h), g); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// class is one entry of the read mix.
type class uint8

const (
	classGeo   class = iota // gsimrank*
	classExp                // esimrank*
	classRWR                // rwr
	classSieve              // memo-gsimrank* at the tolerance
	numClasses
)

var classNames = [numClasses]string{"gsimrank", "esimrank", "rwr", "sieved"}

// measure is the wire name of the class's measure.
func (c class) measure() string {
	switch c {
	case classGeo:
		return "gsimrank*"
	case classExp:
		return "esimrank*"
	case classRWR:
		return "rwr"
	}
	return "memo-gsimrank*"
}

// mixDeck is one shuffled round of the read mix: 35% gsimrank*, 35%
// esimrank*, 15% rwr and 15% tolerance reads. Dealing reads from whole
// decks gives every run the exact mix, so the share of cheap reads never
// drifts with the seed.
var mixDeck = [20]class{
	classGeo, classGeo, classGeo, classGeo, classGeo, classGeo, classGeo,
	classExp, classExp, classExp, classExp, classExp, classExp, classExp,
	classRWR, classRWR, classRWR,
	classSieve, classSieve, classSieve,
}

// query is one (measure, node) read.
type query struct {
	Class class
	Node  int
}

type opKind uint8

const (
	opTopK  opKind = iota // POST /v1/query/topk
	opBatch               // POST /v1/query/batch, mode topk
	opEdit                // POST /v1/edges
)

var opKindNames = [...]string{"topk", "batch", "edit"}

// phase says whether an op is timed. Priming precedes the timed phase; the
// probe follows it and reaches the layers the workload itself does not.
type phase uint8

const (
	phasePrime phase = iota
	phaseTimed
	phaseProbe
)

// op is one request of the generated stream.
type op struct {
	Kind   opKind
	Phase  phase
	Stream bool
	Q      []query  // one for topk, batchShape's queries for batch
	Insert [][2]int // edit only
	Delete [][2]int // edit only
}

// edits is an edit op's batch as simserve applies it: insertions, then
// deletions.
func (o *op) edits() []dyngraph.Edit {
	es := make([]dyngraph.Edit, 0, len(o.Insert)+len(o.Delete))
	for _, e := range o.Insert {
		es = append(es, dyngraph.Insert(e[0], e[1]))
	}
	for _, e := range o.Delete {
		es = append(es, dyngraph.Delete(e[0], e[1]))
	}
	return es
}

// workload names one traffic mix.
type workload struct {
	name string
	// rate is the nominal request rate on the reference host (2 vCPU).
	// A run executes rate × seconds timed requests: a fixed count for a
	// given --seconds, so two runs of one seed do identical work.
	rate float64
	gen  func(g *graph.Graph, rng *rand.Rand, n int) []op
}

var workloads = []workload{
	{name: "topk_hot", rate: 800, gen: genHot},
	{name: "topk_cold", rate: 75, gen: genCold},
	{name: "batch_cold", rate: 5, gen: genBatch},
	{name: "topk_edits", rate: 70, gen: genEdits},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Shape constants of the workloads.
const (
	hotKeys       = 192 // fits the 256-entry result cache
	editEvery     = 4   // every 4th topk_edits request is an edit
	editInserts   = 16  // edges inserted per edit request
	editLive      = 128 // inserted edges kept live before the oldest go
	probeEdits    = 96  // edit requests of the probe on read-only workloads
	probeReadsPer = 4   // probe reads per class
	probeBatches  = 2
)

// batchShape is the class list of one batch request: 3 gsimrank*,
// 3 esimrank* and 2 rwr queries.
var batchShape = []class{classGeo, classGeo, classGeo, classExp, classExp, classExp, classRWR, classRWR}

// timedOps is the timed request count of a run.
func (w workload) timedOps(seconds int) int {
	return max(1, int(w.rate*float64(seconds)+0.5))
}

// genOps generates a run's whole op stream from the seed, before anything
// is timed: priming, the timed phase, then the probe.
func genOps(w workload, g *graph.Graph, seed int64, seconds int) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := w.gen(g, rng, w.timedOps(seconds))
	return append(ops, genProbe(g, rng, ops)...)
}

// dealer deals classes from shuffled mix decks.
type dealer struct {
	rng  *rand.Rand
	deck []class
}

func (d *dealer) next() class {
	if len(d.deck) == 0 {
		d.deck = append(d.deck, mixDeck[:]...)
		d.rng.Shuffle(len(d.deck), func(i, j int) { d.deck[i], d.deck[j] = d.deck[j], d.deck[i] })
	}
	c := d.deck[0]
	d.deck = d.deck[1:]
	return c
}

// hotKeyCounts splits the hotKeys keys by class in the mix's proportions.
var hotKeyCounts = [numClasses]int{67, 67, 29, 29}

// hotKeySet draws the hot working set: hotKeys distinct (class, node)
// keys in the mix's proportions, nodes zipf-drawn over a seeded
// permutation so the hot nodes are scattered across the id space.
func hotKeySet(rng *rand.Rand) []query {
	perm := rng.Perm(graphNodes)
	z := rand.NewZipf(rng, 1.1, 1, graphNodes-1)
	var keys []query
	seen := make(map[query]bool)
	for c, want := range hotKeyCounts {
		for n := 0; n < want; {
			q := query{Class: class(c), Node: perm[z.Uint64()]}
			if !seen[q] {
				seen[q] = true
				keys = append(keys, q)
				n++
			}
		}
	}
	return keys
}

// hotReads primes every hot key with one materialised read, then returns
// the timed reads: the keys cycled in a fresh shuffle per cycle, so each
// key is read as often as any other and alternately materialised and
// streamed.
func hotReads(rng *rand.Rand, keys []query, n int, next func(i int) *op) []op {
	var ops []op
	for _, k := range keys {
		ops = append(ops, op{Kind: opTopK, Phase: phasePrime, Q: []query{k}})
	}
	order := make([]query, 0, len(keys))
	reads := 0
	for i := 0; i < n; i++ {
		if special := next(i); special != nil {
			ops = append(ops, *special)
			continue
		}
		if len(order) == 0 {
			order = append(order, keys...)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		ops = append(ops, op{Kind: opTopK, Phase: phaseTimed, Stream: reads%2 == 1, Q: []query{order[0]}})
		order = order[1:]
		reads++
	}
	return ops
}

func genHot(_ *graph.Graph, rng *rand.Rand, n int) []op {
	return hotReads(rng, hotKeySet(rng), n, func(int) *op { return nil })
}

func genCold(_ *graph.Graph, rng *rand.Rand, n int) []op {
	d := &dealer{rng: rng}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: opTopK, Phase: phaseTimed, Stream: i%2 == 1,
			Q: []query{{Class: d.next(), Node: rng.Intn(graphNodes)}}}
	}
	return ops
}

func genBatch(_ *graph.Graph, rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = batchOp(rng, phaseTimed, i%2 == 1)
	}
	return ops
}

func batchOp(rng *rand.Rand, ph phase, stream bool) op {
	qs := make([]query, len(batchShape))
	for j, c := range batchShape {
		qs[j] = query{Class: c, Node: rng.Intn(graphNodes)}
	}
	return op{Kind: opBatch, Phase: ph, Stream: stream, Q: qs}
}

func genEdits(g *graph.Graph, rng *rand.Rand, n int) []op {
	keys := hotKeySet(rng)
	es := newEditScript(g, rng)
	return hotReads(rng, keys, n, func(i int) *op {
		if i%editEvery != editEvery-1 {
			return nil
		}
		e := es.next(phaseTimed)
		return &e
	})
}

// genProbe is the untimed tail of every run: batches and single reads on
// uniform nodes, so the traced run measures the batch and kernel layers on
// every workload, and, on workloads without timed writes, a short edit
// script that gives edit_p50_ms its samples.
func genProbe(g *graph.Graph, rng *rand.Rand, timed []op) []op {
	var ops []op
	for i := 0; i < probeBatches; i++ {
		ops = append(ops, batchOp(rng, phaseProbe, i%2 == 1))
	}
	for i := 0; i < probeReadsPer*int(numClasses); i++ {
		ops = append(ops, op{Kind: opTopK, Phase: phaseProbe, Stream: i%2 == 1,
			Q: []query{{Class: class(i / probeReadsPer), Node: rng.Intn(graphNodes)}}})
	}
	for _, o := range timed {
		if o.Kind == opEdit {
			return ops
		}
	}
	es := newEditScript(g, rng)
	for i := 0; i < probeEdits; i++ {
		ops = append(ops, es.next(phaseProbe))
	}
	return ops
}

// editScript generates edit requests: editInserts fresh edges each (absent
// from g100k and never inserted before, so every request changes the graph
// and materialises exactly one epoch), plus, once editLive inserted edges
// are live, deletion of the editInserts oldest.
type editScript struct {
	g    *graph.Graph
	rng  *rand.Rand
	used map[[2]int]bool
	live [][2]int
}

func newEditScript(g *graph.Graph, rng *rand.Rand) *editScript {
	return &editScript{g: g, rng: rng, used: make(map[[2]int]bool)}
}

func (s *editScript) next(ph phase) op {
	o := op{Kind: opEdit, Phase: ph}
	if len(s.live) >= editLive {
		o.Delete = append([][2]int(nil), s.live[:editInserts]...)
		s.live = s.live[editInserts:]
	}
	for len(o.Insert) < editInserts {
		u, v := s.rng.Intn(graphNodes), s.rng.Intn(graphNodes)
		e := [2]int{u, v}
		if u == v || s.used[e] || s.g.HasEdge(u, v) {
			continue
		}
		s.used[e] = true
		o.Insert = append(o.Insert, e)
	}
	s.live = append(s.live, o.Insert...)
	return o
}

// checksum is the FNV-64a hash of the op stream: two runs that print the
// same checksum sent the same requests in the same order.
func checksum(ops []op) string {
	h := fnv.New64a()
	w := bufio.NewWriter(h)
	put := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		w.Write(b[:])
	}
	for _, o := range ops {
		stream := 0
		if o.Stream {
			stream = 1
		}
		put(int(o.Kind))
		put(int(o.Phase))
		put(stream)
		put(len(o.Q))
		for _, q := range o.Q {
			put(int(q.Class))
			put(q.Node)
		}
		for _, es := range [][][2]int{o.Insert, o.Delete} {
			put(len(es))
			for _, e := range es {
				put(e[0])
				put(e[1])
			}
		}
	}
	w.Flush()
	return fmt.Sprintf("%016x", h.Sum64())
}
