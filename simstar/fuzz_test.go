package simstar_test

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/obs"
	"repro/simstar"
)

// FuzzEngine is the engine-level differential check. From its four inputs
// it draws a graph, an edit script, an option vector and reads, answers the
// reads on one engine before the edits and again after each ApplyEdits
// batch, and checks every answer three ways:
//
//   - Bitwise against a cache-off engine built from scratch on the edited
//     graph under the query's own options, errors included (a per-query
//     deadline or fault hook may also fail a query). A tolerance answer is
//     that engine's sieved answer with its certificate or, by the
//     exact-donor rule, its exact answer with certificate 0; a model of the
//     result cache's LRU says which, and what a batch slot reports as
//     Cached.
//   - Against an independent oracle: core.SeriesGeometric and
//     core.SeriesExponential for the SimRank* names, (1−C)·Σ_{l≤K} Cˡ (Wᵀ)ˡ e_q
//     for RWR, Lookup(name, opts).AllPairs for the rest, within 1e-10 plus
//     the certificate, which is at most the tolerance. The standalone
//     Measure answers the engine's exact vector bitwise, and a SimRank*
//     AllPairs is symmetric with entries in [0, 1].
//   - For private copies: every returned vector is overwritten once
//     checked, and a registered measure that keeps its output scribbles
//     over it; no returned vector may change after.
//
// Decoding, with missing bytes read as 0: graph is n−1 (mod 24) and then
// byte pairs (u, v) mod n, at most 4n edges; edits are byte triples
// (op, a, b), where op mod 3 inserts or deletes (a, b) mod n — a no-op when
// present or missing — or inserts (n + a mod 3, b mod n), growing the
// graph, and op ≥ 128 ends one of at most two ApplyEdits batches; opts is
// one byte per option (decodeOpts); reads is decodeReads' format.
//
// The seeds run in every `go test`; `go test -run='^$' -fuzz=FuzzEngine
// ./simstar` explores beyond them. A new read path or option lands together
// with its draw here.
func FuzzEngine(f *testing.F) {
	checkDrawsEveryName(f)
	registerKeeps(f)
	for _, seeds := range engineSeeds {
		for _, s := range seeds(f) {
			f.Add(s.graph, s.edits, s.opts, s.reads)
		}
	}
	f.Fuzz(func(t *testing.T, graph, edits, opts, reads []byte) {
		runEngineCase(t, engineSeed{graph: graph, edits: edits, opts: opts, reads: reads})
	})
}

// engineSeed is one FuzzEngine input; name labels it when a folded test
// replays it.
type engineSeed struct {
	name                      string
	graph, edits, opts, reads []byte
}

// replay runs seeds as named subtests, a seed named "group/name" as the
// subtest name of the subtest group: each conformance test FuzzEngine
// folded keeps its name, and its subtests', as a replay of the seeds that
// carry its cases.
func replay(t *testing.T, seeds func(testing.TB) []engineSeed) {
	registerKeeps(t)
	var groups []string
	byGroup := map[string][]engineSeed{}
	for _, s := range seeds(t) {
		group, _, _ := strings.Cut(s.name, "/")
		if byGroup[group] == nil {
			groups = append(groups, group)
		}
		byGroup[group] = append(byGroup[group], s)
	}
	for _, group := range groups {
		t.Run(group, func(t *testing.T) {
			for _, s := range byGroup[group] {
				if _, name, nested := strings.Cut(s.name, "/"); nested {
					t.Run(name, func(t *testing.T) { runEngineCase(t, s) })
				} else {
					runEngineCase(t, s)
				}
			}
		})
	}
}

// fuzzAliases is the registry's alias table and fuzzNames every name the
// reads draw: each registered name and alias, case variants and an unknown
// name. checkDrawsEveryName keeps both in step with the registry.
var (
	fuzzAliases = map[string]string{
		"iter-gsr*": gsr, "gsr*": gsr, "memo-gsr*": simstar.MeasureGeometricMemo, "esr*": esr,
		"memo-esr*": simstar.MeasureExponentialMemo, "psum-sr": simstar.MeasureSimRank,
		"ppr": rwr, "mtx-sr": simstar.MeasureMtxSimRank,
	}
	fuzzNames = []string{
		gsr, simstar.MeasureGeometricMemo, esr, simstar.MeasureExponentialMemo, rwr,
		simstar.MeasureSimRank, simstar.MeasureSimRankMatrix, simstar.MeasurePRank, simstar.MeasurePRankMatrix,
		simstar.MeasureSparse, simstar.MeasureCoCitation, simstar.MeasureMtxSimRank, keepsName,
		"iter-gsr*", "gsr*", "memo-gsr*", "esr*", "memo-esr*", "psum-sr", "ppr", "mtx-sr",
		"GSR*", "Memo-ESR*", "no-such-measure",
	}
)

const gsr, esr, rwr = simstar.MeasureGeometric, simstar.MeasureExponential, simstar.MeasureRWR

// checkDrawsEveryName fails unless the reads draw every registered name and
// alias, and Lookup resolves each to the measure of its canonical name.
func checkDrawsEveryName(tb testing.TB) {
	if got := simstar.AliasesForTest(); !maps.Equal(got, fuzzAliases) {
		tb.Fatalf("registered aliases %v, FuzzEngine draws %v", got, fuzzAliases)
	}
	names := simstar.Names()
	for alias := range fuzzAliases {
		names = append(names, alias)
	}
	for _, name := range names {
		if m, err := simstar.Lookup(name); !slices.Contains(fuzzNames, name) || err != nil || m.Name() != canonicalName(name) {
			tb.Fatalf("FuzzEngine draws %q: %t; Lookup = %v, %v", name, slices.Contains(fuzzNames, name), m, err)
		}
	}
}

func canonicalName(name string) string {
	n := strings.ToLower(name)
	if c, ok := fuzzAliases[n]; ok {
		return c
	}
	return n
}

// optVec is an option vector: the value each option sets, zero where it is
// absent, which the engine reads alike.
type optVec struct {
	c, eps, sieve, tol, lambda, delta float64
	k, rank, cache, workers           int
}

// The option draws. An ε at or above C resolves zero iterations, and every
// read refuses it, as it refuses a C outside [0, 1).
var (
	badCDraws   = []float64{math.Inf(-1), -0.1, 1, 1.5, math.NaN()}
	epsDraws    = []float64{0.05, 0.1, 0.2, 0.5, 0.7, 1}
	sieveDraws  = []float64{0, 1e-4, 1e-3, 1e-2}
	tolDraws    = []float64{0, simstar.MinTolerance / 2, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2}
	cacheDraws  = []int{0, -1, 1, 2}
	lambdaDraws = []float64{0, 0.3, 0.8}
	deltaDraws  = []float64{0, 1e-3, 1e-2}
)

// decodeOpts reads an option vector, one byte each: C = (10 + (b−1) mod 81)/100
// for 0 < b < 250 (0 keeps the default, and b ≥ 250 draws a C outside
// [0, 1)); K = b mod 9 for b < 128, else an ε draw;
// then the sieve, tolerance, cache size, workers (1 or 2), λ, δ and rank (1
// to 6) draws.
func decodeOpts(b []byte) optVec {
	at := func(i, n int) int {
		if i < len(b) {
			return int(b[i]) % n
		}
		return 0
	}
	v := optVec{
		sieve: sieveDraws[at(2, 4)], tol: tolDraws[at(3, 7)], cache: cacheDraws[at(4, 4)], workers: 1 + at(5, 2),
		lambda: lambdaDraws[at(6, 3)], delta: deltaDraws[at(7, 3)], rank: 1 + at(8, 6),
	}
	if c := at(0, 256); c >= 250 {
		v.c = badCDraws[(c-250)%len(badCDraws)]
	} else if c > 0 {
		v.c = float64(10+(c-1)%81) / 100
	}
	if k := at(1, 256); k < 128 {
		v.k = k % 9
	} else {
		v.eps = epsDraws[(k-128)%len(epsDraws)]
	}
	return v
}

// bytes is decodeOpts' inverse, for seeds.
func (v optVec) bytes() []byte {
	c, k := 0, v.k
	switch i := slices.Index(badCDraws, v.c); {
	case math.IsNaN(v.c):
		c = 250 + len(badCDraws) - 1
	case i >= 0:
		c = 250 + i
	case v.c != 0:
		c = int(math.Round(100*v.c)) - 9
	}
	if v.eps != 0 {
		k = 128 + slices.Index(epsDraws, v.eps)
	}
	return []byte{byte(c), byte(k), byte(slices.Index(sieveDraws, v.sieve)), byte(slices.Index(tolDraws, v.tol)),
		byte(slices.Index(cacheDraws, v.cache)), byte(v.workers - 1), byte(slices.Index(lambdaDraws, v.lambda)),
		byte(slices.Index(deltaDraws, v.delta)), byte(v.rank - 1)}
}

func (v optVec) options() []simstar.Option {
	return []simstar.Option{
		simstar.WithC(v.c), simstar.WithK(v.k), simstar.WithEps(v.eps), simstar.WithSieve(v.sieve),
		simstar.WithTolerance(v.tol), simstar.WithLambda(v.lambda), simstar.WithDelta(v.delta),
		simstar.WithRank(v.rank), simstar.WithCacheSize(v.cache), simstar.WithWorkers(v.workers),
	}
}

// override is a per-query option: Query.Opts in a batch, Engine.With on a
// lone read. set applies it to the option vector; a deadline or fault hook
// is a serving knob the vector leaves out, and fails is the error it may
// cause instead of an answer.
type override struct {
	opts  []simstar.Option
	set   func(*optVec)
	fails error
}

const (
	ovNone = iota
	ovK2
	ovTol3
	ovTol4
	ovTol0
	ovSieve
	ovExpired
	ovHour
	ovEps
	ovC
	ovSieveTol
	ovPanic
)

var overrides = []override{
	ovNone:    {},
	ovK2:      {[]simstar.Option{simstar.WithK(2)}, func(v *optVec) { v.k = 2 }, nil},
	ovTol3:    {[]simstar.Option{simstar.WithTolerance(1e-3)}, func(v *optVec) { v.tol = 1e-3 }, nil},
	ovTol4:    {[]simstar.Option{simstar.WithTolerance(1e-4)}, func(v *optVec) { v.tol = 1e-4 }, nil},
	ovTol0:    {[]simstar.Option{simstar.WithTolerance(0)}, func(v *optVec) { v.tol = 0 }, nil},
	ovSieve:   {[]simstar.Option{simstar.WithSieve(1e-3)}, func(v *optVec) { v.sieve = 1e-3 }, nil},
	ovExpired: {[]simstar.Option{simstar.WithDeadline(time.Nanosecond)}, nil, context.DeadlineExceeded},
	ovHour:    {[]simstar.Option{simstar.WithDeadline(time.Hour)}, nil, nil},
	ovEps:     {[]simstar.Option{simstar.WithEps(0.7)}, func(v *optVec) { v.eps = 0.7 }, nil},
	ovC:       {[]simstar.Option{simstar.WithC(0.8)}, func(v *optVec) { v.c = 0.8 }, nil},
	ovSieveTol: {[]simstar.Option{simstar.WithSieve(1e-2), simstar.WithTolerance(1e-6)},
		func(v *optVec) { v.sieve, v.tol = 1e-2, 1e-6 }, nil},
	ovPanic: {[]simstar.Option{simstar.WithFaultHook(func(string) { panic("injected") })}, nil, simstar.ErrKernelPanic},
}

// The read kinds.
const (
	readSingle = iota
	readCertified
	readInto
	readTopK
	readMulti
	readBatchTopK
	readAllPairs
	numReads
)

var readNames = [numReads]string{"SingleSource", "SingleSourceCertified", "SingleSourceInto", "TopK", "MultiSource", "BatchTopK", "AllPairs"}

// fquery is one query of a read, as six bytes: name (fuzzNames), node, k,
// exclusion count and start, and flags, whose low five bits pick an
// override, bit 6 repeats the previous query of the batch and bit 7 traces
// the query. SingleSourceInto takes its dst from k mod 3: nil, one short of
// n, or longer than n.
type fquery struct {
	name                   string
	node, k, exclN, exclAt byte
	over                   int
	trace                  bool
}

// at resolves q against the live node count n: node b mod n for b < 250,
// n for b < 253 and −1 above; k = int8(b); exclN mod 21 exclusions from
// exclAt on, mod n+2.
func (q fquery) at(n int) (node, k int, excl []int) {
	switch {
	case q.node < 250:
		node = int(q.node) % n
	case q.node < 253:
		node = n
	default:
		node = -1
	}
	for i := range int(q.exclN) % 21 {
		excl = append(excl, (int(q.exclAt)+i)%(n+2))
	}
	return node, int(int8(q.k)), excl
}

type fread struct {
	kind int
	qs   []fquery
}

// decodeReads reads at most 48 reads, each a kind byte (mod numReads), for
// the two batch kinds a count byte (1 + b mod 8 queries), and its queries.
func decodeReads(b []byte) []fread {
	var reads []fread
	for len(b) > 0 && len(reads) < 48 {
		rd, count := fread{kind: int(b[0]) % numReads}, 1
		if b = b[1:]; (rd.kind == readMulti || rd.kind == readBatchTopK) && len(b) > 0 {
			count, b = 1+int(b[0])%8, b[1:]
		}
		for i := range count {
			var q [6]byte
			b = b[copy(q[:], b):]
			fq := fquery{fuzzNames[int(q[0])%len(fuzzNames)], q[1], q[2], q[3], q[4], int(q[5]&31) % len(overrides), q[5]&128 != 0}
			if q[5]&64 != 0 && i > 0 {
				p := rd.qs[i-1]
				fq.name, fq.node, fq.k, fq.exclN, fq.exclAt = p.name, p.node, p.k, p.exclN, p.exclAt
			}
			rd.qs = append(rd.qs, fq)
		}
		reads = append(reads, rd)
	}
	return reads
}

// engineRun is one FuzzEngine case: the engine under test, the live graph
// rebuilt from scratch, the cache model and the live epoch's reference
// engines, reference answers and oracle matrices.
type engineRun struct {
	t       *testing.T
	eng     *simstar.Engine
	base    optVec
	g       *simstar.Graph
	edges   [][2]int
	epoch   uint64
	lru     lruModel
	refs    map[optVec]*simstar.Engine
	expects map[expectKey]*expectation
	oracles map[oracleKey][][]float64
}

func runEngineCase(t *testing.T, s engineSeed) {
	n, edges := 1, [][2]int{}
	if len(s.graph) > 0 {
		n += int(s.graph[0]) % 24
	}
	for b := s.graph[min(1, len(s.graph)):]; len(b) >= 2 && len(edges) < 4*n; b = b[2:] {
		edges = append(edges, [2]int{int(b[0]) % n, int(b[1]) % n})
	}
	r := &engineRun{t: t, base: decodeOpts(s.opts)}
	r.eng = simstar.NewEngine(simstar.GraphFromEdges(n, edges), r.base.options()...)
	r.lru = lruModel{size: max(r.base.cache, 0), valid: true}
	if r.base.cache == 0 {
		r.lru.size = simstar.DefaultCacheSize
	}
	r.rebuild()
	reads := decodeReads(s.reads)
	r.pass(reads)
	for script, batches := s.edits, 0; len(script) > 0 && batches < 2; batches++ {
		var edits []simstar.Edit
		for len(script) > 0 && len(edits) < 24 {
			var e [3]byte
			script = script[copy(e[:], script):]
			a, b := int(e[1]), int(e[2])%r.g.N()
			switch e[0] % 3 {
			case 0:
				edits = append(edits, simstar.InsertEdge(a%r.g.N(), b))
			case 1:
				edits = append(edits, simstar.DeleteEdge(a%r.g.N(), b))
			default:
				edits = append(edits, simstar.InsertEdge(r.g.N()+a%3, b))
			}
			if e[0] >= 128 {
				break
			}
		}
		r.apply(edits)
		r.pass(reads)
	}
}

// rebuild rebuilds the live graph from scratch out of the engine's edges,
// and drops the previous epoch's references.
func (r *engineRun) rebuild() {
	served := r.eng.Graph()
	r.edges = r.edges[:0:0]
	served.Edges(func(u, v int) { r.edges = append(r.edges, [2]int{u, v}) })
	r.g = simstar.GraphFromEdges(served.N(), r.edges)
	r.refs, r.expects, r.oracles = map[optVec]*simstar.Engine{}, map[expectKey]*expectation{}, map[oracleKey][][]float64{}
}

// apply runs one ApplyEdits batch: the epoch advances exactly when the
// graph changed.
func (r *engineRun) apply(edits []simstar.Edit) {
	n, edges := r.g.N(), r.edges
	st, err := r.eng.ApplyEdits(edits...)
	if err != nil {
		r.t.Fatalf("ApplyEdits(%v): %v", edits, err)
	}
	r.rebuild()
	changed, want := r.g.N() != n || !slices.Equal(r.edges, edges), r.epoch
	if changed {
		want++
	}
	if st.Epoch != want || st.Refreshed != changed {
		r.t.Fatalf("ApplyEdits(%v) = epoch %d refreshed %t; want %d and %t", edits, st.Epoch, st.Refreshed, want, changed)
	}
	r.epoch = st.Epoch
}

// lruModel is the result cache as the reads should leave it: keys most
// recently used first, at most size of them (0 when the cache is off).
// valid drops once a batch fans out over two workers, whose fill order is
// unknown; from then on Cached goes unchecked and a tolerance read may
// return either answer.
type lruModel struct {
	size  int
	keys  []modelKey
	valid bool
}

// modelKey is a result-cache key: the canonical name, the option vector as
// cacheParams leaves it, the epoch and the node.
type modelKey struct {
	name  string
	v     optVec
	epoch uint64
	node  int
}

func (m *lruModel) touch(k modelKey) bool {
	i := slices.Index(m.keys, k)
	if i >= 0 {
		m.keys = slices.Insert(slices.Delete(m.keys, i, i+1), 0, k)
	}
	return i >= 0
}

// read is one successful probe: a hit on k, a hit on the exact donor of a
// tolerance key, or a miss, which fills k.
func (m *lruModel) read(k modelKey) (hit, donor bool) {
	exact := k
	exact.v.tol = 0
	switch {
	case m.size == 0:
		return false, false
	case m.touch(k):
		return true, false
	case k.v.tol != 0 && m.touch(exact):
		return true, true
	}
	m.keys = slices.Insert(m.keys, 0, k)[:min(len(m.keys)+1, m.size)]
	return false, false
}

// resolved is a query on the live epoch: its node, ranking size and
// exclusions, its option vector and result-cache key, and what it must
// return.
type resolved struct {
	node, k int
	excl    []int
	v       optVec
	key     modelKey
	e       *expectation
}

// resolve applies q's override to the engine's options.
func (r *engineRun) resolve(q fquery) resolved {
	node, k, excl := q.at(r.g.N())
	v := r.base
	if set := overrides[q.over].set; set != nil {
		set(&v)
	}
	key := modelKey{canonicalName(q.name), v, r.epoch, node}
	key.v.cache, key.v.workers = 0, 0
	if !(v.tol >= simstar.MinTolerance && !(v.sieve > 0)) {
		key.v.tol = 0 // no sieved path: the exact key
	}
	return resolved{node, k, excl, v, key, r.expect(q.name, v, node)}
}

// expectation is the reference's answer to a name, option vector and node:
// its error, or its exact answer and, under a tolerance, its sieved one with
// the certificate.
type expectation struct {
	err           string
	exact, sieved []float64
	cert          float64
}

type expectKey struct {
	name string
	v    optVec
	node int
}

type oracleKey struct {
	name string
	v    optVec
}

// ref is the cache-off reference engine for v on the live graph.
func (r *engineRun) ref(v optVec) *simstar.Engine {
	v.cache, v.workers = -1, 1
	eng := r.refs[v] // a NaN C never finds its entry: each read builds one
	if eng == nil {
		eng = simstar.NewEngine(r.g, v.options()...)
		r.refs[v] = eng
	}
	return eng
}

// expect asks the reference, once per name, options and node, and checks
// its answers against the standalone Measure and the oracle.
func (r *engineRun) expect(name string, v optVec, node int) *expectation {
	v.cache, v.workers = 0, 0
	key := expectKey{name, v, node}
	if e := r.expects[key]; e != nil {
		return e
	}
	e, ctx, exact := &expectation{}, context.Background(), v
	r.expects[key] = e
	exact.tol = 0
	x, cert, err := r.ref(exact).SingleSourceCertified(ctx, name, node)
	if err != nil {
		e.err = err.Error()
		r.refused(name, exact, func(m simstar.Measure) error { _, err := m.SingleSource(ctx, r.g, node); return err })
		return e
	}
	e.exact = slices.Clone(x)
	if row, err := lookup(r.t, name, exact).SingleSource(ctx, r.g, node); err != nil || cert != 0 || firstBitDiff(row, x) >= 0 {
		r.t.Fatalf("%s node %d: the engine answers %v (certificate %g), the standalone Measure %v, %v", name, node, x, cert, row, err)
	}
	oracle, sieve := r.oracle(name, v)
	r.near(name+" exact", x, oracle[node], 1e-10, sieve)
	if v.tol >= simstar.MinTolerance {
		s, cert, err := r.ref(v).SingleSourceCertified(ctx, name, node)
		if err != nil || !(cert <= v.tol) {
			r.t.Fatalf("%s node %d tolerance %g: certificate %g, %v", name, node, v.tol, cert, err)
		}
		e.sieved, e.cert = slices.Clone(s), cert
		r.near(name+" sieved", s, oracle[node], cert+1e-10, sieve)
	}
	return e
}

// refused fails unless the standalone Measure of name refuses, through
// call, what the engine refused. Only the keeping measure, which checks
// nothing, and unknown names are exempt.
func (r *engineRun) refused(name string, v optVec, call func(simstar.Measure) error) {
	if m, err := simstar.Lookup(name, v.options()...); err == nil && canonicalName(name) != keepsName && call(m) == nil {
		r.t.Fatalf("%s: the engine refuses options %+v, the standalone Measure answers", name, v)
	}
}

func lookup(t *testing.T, name string, v optVec) simstar.Measure {
	m, err := simstar.Lookup(name, v.options()...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// seriesOracles are the SimRank* names' oracles.
var seriesOracles = map[string]func(*simstar.Graph, core.Options) *dense.Matrix{
	gsr: core.SeriesGeometric, simstar.MeasureGeometricMemo: core.SeriesGeometric,
	esr: core.SeriesExponential, simstar.MeasureExponentialMemo: core.SeriesExponential,
}

// oracle is the independent all-pairs answer of name under v on the live
// graph, and the sieve the engine applies on top of it (0 where the oracle
// is Lookup's AllPairs, which applies it itself).
func (r *engineRun) oracle(name string, v optVec) ([][]float64, float64) {
	v.tol, v.cache, v.workers = 0, 0, 0
	key := oracleKey{canonicalName(name), v}
	series, sieve := seriesOracles[key.name], v.sieve
	if series == nil && key.name != rwr {
		sieve = 0
	}
	if rows, ok := r.oracles[key]; ok {
		return rows, sieve
	}
	rows := make([][]float64, r.g.N())
	for q := range rows {
		switch {
		case series != nil:
			rows[q] = series(r.g, core.Options{C: v.c, K: v.k, Eps: v.eps}).Row(q)
		case key.name == rwr:
			rows[q] = rwrDefinition(r.g, v, q)
		case q == 0:
			s, err := lookup(r.t, name, v).AllPairs(context.Background(), r.g)
			if err != nil {
				r.t.Fatal(err)
			}
			for i := range rows {
				rows[i] = s.Row(i)
			}
		}
	}
	r.oracles[key] = rows
	return rows, sieve
}

// rwrDefinition is row q of RWR's K-th partial sum, (1−C)·Σ_{l≤K} Cˡ (Wᵀ)ˡ e_q,
// with W the row-normalised adjacency and K the geometric count of v.
func rwrDefinition(g *simstar.Graph, v optVec, q int) []float64 {
	c, k := v.c, simstar.IterationsGeometric(v.options()...)
	if c == 0 {
		c = 0.6
	}
	row, x := make([]float64, g.N()), make([]float64, g.N())
	x[q] = 1
	for l, coef := 0, 1-c; ; l, coef = l+1, coef*c {
		for j, xj := range x {
			row[j] += coef * xj
		}
		if l == k {
			return row
		}
		next := make([]float64, g.N())
		for u, xu := range x {
			for _, w := range g.Out(u) {
				next[w] += xu / float64(g.OutDeg(u))
			}
		}
		x = next
	}
}

// near fails unless got matches the oracle row want within slack, where a
// positive sieve zeroes entries below it in got but not in want: an entry
// clearly below the threshold must be 0, one within slack of it either.
func (r *engineRun) near(what string, got, want []float64, slack, sieve float64) {
	for j, w := range want {
		ok := math.Abs(got[j]-w) <= slack
		if sieve > 0 && w+slack < sieve {
			ok = got[j] == 0
		} else if sieve > 0 && w-slack < sieve {
			ok = ok || got[j] == 0
		}
		if !ok {
			r.t.Fatalf("%s: score %d = %g, the oracle %g (slack %g, sieve %g)", what, j, got[j], w, slack, sieve)
		}
	}
}

// answer is one query's outcome in a read. cert and cached are −1 where the
// read reports none; group names the computation a batch query shares.
type answer struct {
	rq     resolved
	over   int
	trace  *obs.Trace
	vec    []float64
	top    []simstar.Ranked
	ranked bool
	cert   float64
	cached int
	err    error
	probes bool
	group  any
}

// pass answers every read on the live epoch, then has the keeping measure
// scribble over the slice it returned last: every vector a read returned
// must still hold the overwrite its check left.
func (r *engineRun) pass(reads []fread) {
	for _, rd := range reads {
		what := readNames[rd.kind] + "(" + rd.qs[0].name + ")"
		held := r.check(what, r.read(rd))
		keeps.scribble()
		for _, vec := range held {
			if i := slices.IndexFunc(vec, func(x float64) bool { return x != -1 }); i >= 0 {
				r.t.Fatalf("%s: a returned vector changed after it was handed out: [%d] = %g", what, i, vec[i])
			}
		}
	}
}

// read runs one read and returns its answers. A lone read's query runs on
// Engine.With(override); a batch dedupes its queries into groups by cache
// key, deadline and fault hook (each per-query hook its own), whose first
// query computes.
func (r *engineRun) read(rd fread) []answer {
	ctx := context.Background()
	q := rd.qs[0]
	a := answer{rq: r.resolve(q), over: q.over, cert: -1, cached: -1, probes: true}
	eng := r.eng
	if opts := overrides[q.over].opts; opts != nil {
		eng = r.eng.With(opts...)
	}
	node, k, excl := a.rq.node, a.rq.k, a.rq.excl
	switch rd.kind {
	case readSingle:
		a.vec, a.err = eng.SingleSource(ctx, q.name, node)
	case readCertified:
		a.vec, a.cert, a.err = eng.SingleSourceCertified(ctx, q.name, node)
	case readInto:
		var dst []float64 // nil for k mod 3 = 0
		switch q.k % 3 {
		case 1:
			dst = make([]float64, r.g.N()-1)
		case 2:
			dst = make([]float64, r.g.N()+2)
		}
		a.vec, a.err = eng.SingleSourceInto(ctx, q.name, node, dst)
		if a.err == nil && (len(a.vec) != r.g.N() || cap(dst) >= r.g.N() && &a.vec[0] != &dst[0]) {
			r.t.Fatalf("SingleSourceInto of %d scores into cap %d: %d scores, not in dst", r.g.N(), cap(dst), len(a.vec))
		}
		a.probes = !simstar.HasCertifiedPath(q.name) || a.rq.key.v.tol != 0
	case readTopK:
		a.ranked = true
		a.top, a.err = eng.TopK(ctx, q.name, node, k, excl...)
	case readAllPairs:
		r.allPairs(eng, q, a.rq.v)
		return nil
	default:
		answers, queries := make([]answer, len(rd.qs)), make([]simstar.Query, len(rd.qs))
		for i, q := range rd.qs {
			rq := r.resolve(q)
			queries[i] = simstar.Query{Measure: q.name, Node: rq.node, K: rq.k, Exclude: rq.excl, Opts: overrides[q.over].opts}
			answers[i] = answer{rq: rq, over: q.over, ranked: rd.kind == readBatchTopK, probes: true, group: rq.key}
			if q.trace {
				queries[i].Trace = &obs.Trace{}
			}
			switch q.over {
			case ovExpired, ovHour:
				answers[i].group = [2]any{rq.key, q.over}
			case ovPanic:
				answers[i].group = i
			}
		}
		call := r.eng.MultiSource
		if rd.kind == readBatchTopK {
			call = r.eng.BatchTopK
		}
		res := call(ctx, queries)
		if len(res) != len(queries) {
			r.t.Fatalf("%d queries, %d results", len(queries), len(res))
		}
		if r.base.workers > 1 && len(queries) > 1 {
			r.lru.valid = false
		}
		for i, got := range res {
			a := &answers[i]
			a.vec, a.top, a.cert, a.cached, a.err, a.trace = got.Scores, got.Top, got.MaxError, 0, got.Err, queries[i].Trace
			if got.Cached {
				a.cached = 1
			}
		}
		return answers
	}
	a.group = &a
	return []answer{a}
}

// check checks a read's answers: errors against the reference and the
// query's override, then the answer against the candidates the cache model
// allows. A batch group's first query decides its outcome, with groups
// probing the cache in order of first appearance. It overwrites each
// returned vector and ranking with −1 and returns the vectors.
func (r *engineRun) check(what string, answers []answer) (held [][]float64) {
	type outcome struct {
		err   error
		cands []candidate
	}
	groups := map[any]*outcome{}
	for _, a := range answers {
		o := groups[a.group]
		if o == nil {
			o = &outcome{err: a.err}
			groups[a.group] = o
			if !r.failed(what, a.rq.e, a.over, a.err) {
				o.cands = r.answers(a.rq, a.probes)
			}
		}
		if a.err != o.err {
			r.t.Fatalf("%s: %v, its duplicate %v", what, a.err, o.err)
		}
		if a.err != nil {
			if a.vec != nil || a.top != nil {
				r.t.Fatalf("%s failed with %v yet answered %v %v", what, a.err, a.vec, a.top)
			}
			continue
		}
		if !slices.ContainsFunc(o.cands, func(c candidate) bool { return r.matches(a, c) }) {
			r.t.Fatalf("%s = %v %v (certificate %g, cached %d); want one of %+v", what, a.vec, a.top, a.cert, a.cached, o.cands)
		}
		if tr := a.trace; tr != nil && (tr.Measure != a.rq.key.name || tr.Node != a.rq.node || tr.MaxError != a.cert || tr.Cached != (a.cached == 1)) {
			r.t.Fatalf("%s: trace %+v disagrees with its answer", what, tr)
		}
		for i := range a.vec {
			a.vec[i] = -1
		}
		for i := range a.top {
			a.top[i] = simstar.Ranked{Node: -1, Score: -1}
		}
		held = append(held, a.vec)
	}
	return held
}

// candidate is an answer a successful read may return: a vector, its
// certificate and whether it came from the cache (cached −1: either).
type candidate struct {
	vec    []float64
	cert   float64
	cached int
}

// answers returns the candidates of a successful read of rq, advancing the
// cache model by the read's probe when it made one.
func (r *engineRun) answers(rq resolved, probes bool) []candidate {
	exact, sieved := candidate{rq.e.exact, 0, 0}, candidate{rq.e.sieved, rq.e.cert, 0}
	switch {
	case !r.lru.valid:
		exact.cached, sieved.cached = -1, -1
		if rq.e.sieved != nil {
			return []candidate{sieved, exact}
		}
	case probes:
		hit, donor := r.lru.read(rq.key)
		if hit {
			exact.cached, sieved.cached = 1, 1
		}
		if donor {
			return []candidate{exact}
		}
	}
	if rq.e.sieved != nil {
		return []candidate{sieved}
	}
	return []candidate{exact}
}

// matches reports whether a's vector or ranking, certificate and Cached
// flag are c's.
func (r *engineRun) matches(a answer, c candidate) bool {
	same := firstBitDiff(a.vec, c.vec) < 0
	if a.ranked {
		same = rankedSliceEqual(a.top, simstar.TopK(c.vec, a.rq.k, append([]int{a.rq.node}, a.rq.excl...)...))
	}
	return same && (a.cert < 0 || math.Float64bits(a.cert) == math.Float64bits(c.cert)) &&
		(a.cached < 0 || c.cached < 0 || a.cached == c.cached)
}

// failed checks a read's error — the reference's own, or one the query's
// override may cause — and reports whether the read failed.
func (r *engineRun) failed(what string, e *expectation, over int, err error) bool {
	switch {
	case err == nil && e.err != "":
		r.t.Fatalf("%s answered; the reference failed with %s", what, e.err)
	case err == nil:
		return false
	case err.Error() != e.err && (overrides[over].fails == nil || !errors.Is(err, overrides[over].fails)):
		r.t.Fatalf("%s: %v; the reference: %q", what, err, e.err)
	}
	return true
}

// allPairs checks an AllPairs read against the reference engine's and the
// standalone Measure's bitwise, and against the oracle; a SimRank* matrix
// must also be symmetric with entries in [0, 1].
func (r *engineRun) allPairs(eng *simstar.Engine, q fquery, v optVec) {
	ctx, what := context.Background(), "AllPairs("+q.name+")"
	got, err := eng.AllPairs(ctx, q.name)
	want, werr := r.ref(v).AllPairs(ctx, q.name)
	e := &expectation{}
	if werr != nil {
		e.err = werr.Error()
		r.refused(q.name, v, func(m simstar.Measure) error { _, err := m.AllPairs(ctx, r.g); return err })
	}
	if r.failed(what, e, q.over, err) {
		return
	}
	alone, err := lookup(r.t, q.name, v).AllPairs(ctx, r.g)
	if err != nil {
		r.t.Fatal(err)
	}
	oracle, sieve := r.oracle(q.name, v)
	_, simRankStar := seriesOracles[canonicalName(q.name)]
	for i := range r.g.N() {
		row := got.Row(i)
		if firstBitDiff(row, want.Row(i)) >= 0 || firstBitDiff(row, alone.Row(i)) >= 0 {
			r.t.Fatalf("%s row %d = %v; the reference %v, the standalone Measure %v", what, i, row, want.Row(i), alone.Row(i))
		}
		r.near(what, row, oracle[i], 1e-10, sieve)
		for j, x := range row {
			y := got.At(j, i)
			symmetric := math.Abs(x-y) <= 1e-12 || (min(x, y) == 0 && max(x, y) < sieve+1e-12)
			if simRankStar && (x < 0 || x > 1+1e-12 || !symmetric) {
				r.t.Fatalf("%s: (%d,%d) = %g and (%d,%d) = %g; want symmetric scores in [0, 1]", what, i, j, x, j, i, y)
			}
		}
	}
}

// keeps is a registered measure that keeps the slice its last SingleSource
// returned and scribbles over it later, as a measure reusing its output
// buffer would. Its scores depend on the node and the node count.
var keeps = &keepsMeasure{}

const keepsName = "test-keeps-slice"

type keepsMeasure struct{ last atomic.Pointer[[]float64] }

func registerKeeps(tb testing.TB) {
	simstar.RegisterForTest(tb, keepsName, func(...simstar.Option) simstar.Measure { return keeps })
}

func (m *keepsMeasure) Name() string { return keepsName }

func (m *keepsMeasure) row(n, q int) []float64 {
	row := make([]float64, n)
	for i := range row {
		row[i] = 1 / float64(1+max(i-q, q-i))
	}
	return row
}

func (m *keepsMeasure) AllPairs(ctx context.Context, g *simstar.Graph) (*simstar.Scores, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows := make([][]float64, g.N())
	for q := range rows {
		rows[q] = m.row(g.N(), q)
	}
	return simstar.ScoresFromRows(rows), nil
}

func (m *keepsMeasure) SingleSource(ctx context.Context, g *simstar.Graph, q int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	row := m.row(g.N(), q)
	m.last.Store(&row)
	return row, nil
}

// scribble overwrites the slice SingleSource returned last.
func (m *keepsMeasure) scribble() {
	if p := m.last.Swap(nil); p != nil {
		for i := range *p {
			(*p)[i] = -3
		}
	}
}

// engineSeeds is the seed corpus: the seeds of every folded test, the
// breaks FuzzEngine found, and random inputs.
var engineSeeds = []func(testing.TB) []engineSeed{
	engineMatchesMeasuresSeeds, engineTopKSeeds, intoMatchesSingleSourceSeeds,
	multiSourceMatchesSingleSourceSeeds, batchTopKMatchesTopKSeeds, batchTopKAllMeasuresSeeds,
	perQueryOverridesSeeds, certifiedApproxSeeds, toleranceZeroSeeds, batchCertifiedApproxSeeds,
	applyEditsSeeds, measureConformanceSeeds, privateCopiesSeeds, perQueryErrorsSeeds, outOfRangeCSeeds,
	foundSeeds, randomSeeds,
}

// seed builds a named input on g (at most 24 nodes and 4n edges) under v
// from encoded reads.
func seed(name string, g *simstar.Graph, v optVec, reads ...[]byte) engineSeed {
	graph := []byte{byte(g.N() - 1)}
	g.Edges(func(u, w int) { graph = append(graph, byte(u), byte(w)) })
	return engineSeed{name: name, graph: graph, opts: v.bytes(), reads: slices.Concat(reads...)}
}

// sq is a seed query: fquery before encoding; oob as its node reads node n.
type sq struct {
	name          string
	node, k       int
	exclN, exclAt int
	over          int
	dup, trace    bool
}

const oob = -2

// rd encodes a read of kind over qs (one query unless kind is a batch).
func rd(kind int, qs ...sq) []byte {
	b := []byte{byte(kind)}
	if kind == readMulti || kind == readBatchTopK {
		b = append(b, byte(len(qs)-1))
	}
	for _, q := range qs {
		node := byte(q.node)
		switch q.node {
		case oob:
			node = 250
		case -1:
			node = 253
		}
		flags := byte(q.over)
		if q.dup {
			flags |= 64
		}
		if q.trace {
			flags |= 128
		}
		b = append(b, byte(slices.Index(fuzzNames, q.name)), node, byte(int8(q.k)), byte(q.exclN), byte(q.exclAt), flags)
	}
	return b
}

// builtins is every registered name but the keeping measure's: the names
// the folded tests iterated.
func builtins() []string {
	return slices.DeleteFunc(simstar.Names(), func(n string) bool { return n == keepsName })
}

// Engine queries return exactly what the standalone measures return.
func TestEngineMatchesMeasures(t *testing.T) { replay(t, engineMatchesMeasuresSeeds) }

func engineMatchesMeasuresSeeds(tb testing.TB) []engineSeed {
	var seeds []engineSeed
	for _, name := range []string{gsr, simstar.MeasureGeometricMemo, esr, simstar.MeasureExponentialMemo,
		simstar.MeasureSimRank, simstar.MeasureSimRankMatrix, simstar.MeasurePRank, rwr, simstar.MeasureSparse} {
		seeds = append(seeds, seed(name, toyGraph(tb), optVec{c: 0.6, k: 5, workers: 1, rank: 6},
			rd(readAllPairs, sq{name: name}), rd(readSingle, sq{name: name, node: 1})))
	}
	return seeds
}

// TopK ranks the cached vector, without the query node and the excluded.
func TestEngineTopK(t *testing.T) { replay(t, engineTopKSeeds) }

func engineTopKSeeds(tb testing.TB) []engineSeed {
	g := toyGraph(tb)
	q, _ := g.NodeByLabel("followup1")
	top, err := simstar.NewEngine(g, simstar.WithK(8)).TopK(context.Background(), gsr, q, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return []engineSeed{seed("followup1", g, optVec{k: 8, workers: 1, rank: 6},
		rd(readTopK, sq{name: gsr, node: q, k: 3}), rd(readSingle, sq{name: gsr, node: q}),
		rd(readTopK, sq{name: gsr, node: q, k: 3, exclN: 1, exclAt: top[0].Node}))}
}

// SingleSourceInto answers SingleSource's vector into the caller's buffer
// when it fits (k 2: longer than n), in a new one otherwise (k 1: one
// short; k 0: nil).
func TestSingleSourceIntoMatchesSingleSource(t *testing.T) { replay(t, intoMatchesSingleSourceSeeds) }

func intoMatchesSingleSourceSeeds(testing.TB) []engineSeed {
	g := simstar.GraphFromEdges(24, randomEdges(rand.New(rand.NewSource(11)), 24, 80))
	var seeds []engineSeed
	for _, name := range []string{gsr, esr, rwr, simrank} {
		var reads [][]byte
		for q := 0; q < g.N(); q += 9 {
			reads = append(reads, rd(readSingle, sq{name: name, node: q}))
			for k := range 3 {
				reads = append(reads, rd(readInto, sq{name: name, node: q, k: 2 - k}))
			}
		}
		reads = append(reads, rd(readInto, sq{name: name, node: -1, k: 2}))
		seeds = append(seeds, seed(name, g, optVec{k: 4, workers: 1, rank: 6}, reads...))
	}
	return seeds
}

const simrank = simstar.MeasureSimRank

// A batch answers bitwise what lone queries answer, for every measure.
func TestMultiSourceMatchesSingleSource(t *testing.T) { replay(t, multiSourceMatchesSingleSourceSeeds) }

func multiSourceMatchesSingleSourceSeeds(tb testing.TB) []engineSeed {
	var queries []sq
	for _, name := range builtins() {
		for q := 0; q < 7; q += 2 {
			queries = append(queries, sq{name: name, node: q})
		}
	}
	var reads [][]byte
	for ; len(queries) > 0; queries = queries[min(8, len(queries)):] {
		reads = append(reads, rd(readMulti, queries[:min(8, len(queries))]...))
	}
	return []engineSeed{seed("all", toyGraph(tb), optVec{c: 0.6, k: 4, cache: -1, workers: 1, rank: 6}, reads...)}
}

// BatchTopK ranks as TopK does, with exclusions and at every K boundary.
func TestBatchTopKMatchesTopK(t *testing.T) { replay(t, batchTopKMatchesTopKSeeds) }

func batchTopKMatchesTopKSeeds(tb testing.TB) []engineSeed {
	g := toyGraph(tb)
	queries := []sq{
		{name: gsr, node: 0, k: 3}, {name: rwr, node: 1, k: 2, exclN: 1, exclAt: 0},
		{name: esr, node: 2, k: 0}, {name: gsr, node: 3, k: 10 * g.N()}, {name: rwr, node: 4, k: -3},
	}
	reads := [][]byte{rd(readBatchTopK, queries...)}
	for _, q := range queries {
		reads = append(reads, rd(readTopK, q))
	}
	return []engineSeed{seed("boundaries", g, optVec{k: 6, workers: 1, rank: 6}, reads...)}
}

// The one-query BatchTopK every served top-k read makes ranks as TopK does
// and carries SingleSourceCertified's certificate, for every measure, exact
// and under a tolerance, cold and warm: only a key's first read misses.
func TestBatchTopKMatchesTopKAllMeasures(t *testing.T) { replay(t, batchTopKAllMeasuresSeeds) }

func batchTopKAllMeasuresSeeds(tb testing.TB) []engineSeed {
	var seeds []engineSeed
	for _, variant := range []struct {
		name string
		tol  float64
	}{{"exact", 0}, {"tolerance", 1e-3}} {
		for _, name := range builtins() {
			var reads [][]byte
			for qi, q := range []int{0, 5, 13} {
				for _, k := range []int{1, 5, 34} {
					one := sq{name: name, node: q, k: k, exclN: 1, exclAt: 2}
					if qi%2 == 0 {
						reads = append(reads, rd(readTopK, one), rd(readBatchTopK, one))
					} else {
						reads = append(reads, rd(readBatchTopK, one), rd(readTopK, one))
					}
				}
			}
			seeds = append(seeds, seed(variant.name+"/"+name, tieGraph(tb), optVec{c: 0.6, k: 4, tol: variant.tol, workers: 1, rank: 6}, reads...))
		}
	}
	return seeds
}

// Per-query Opts act as Engine.With for their query alone.
func TestMultiSourcePerQueryOverrides(t *testing.T) { replay(t, perQueryOverridesSeeds) }

func perQueryOverridesSeeds(tb testing.TB) []engineSeed {
	return []engineSeed{seed("k", toyGraph(tb), optVec{c: 0.6, k: 8, workers: 1, rank: 6},
		rd(readMulti, sq{name: gsr, node: 1}, sq{name: gsr, node: 1, over: ovK2}))}
}

// A tolerance answer lies within its certificate, at most the tolerance, of
// the exact one, for every measure.
func TestCertifiedApproxConformance(t *testing.T) { replay(t, certifiedApproxSeeds) }

func certifiedApproxSeeds(tb testing.TB) []engineSeed {
	return everyMeasure(tb, []float64{1e-3, 1e-5}, []int{0, 7, 19})
}

// everyMeasure is one seed per tolerance: SingleSourceCertified of every
// measure at each node of the 20-node approxTestGraph.
func everyMeasure(tb testing.TB, tols []float64, nodes []int) []engineSeed {
	var seeds []engineSeed
	for _, tol := range tols {
		var reads [][]byte
		for _, name := range builtins() {
			for _, q := range nodes {
				reads = append(reads, rd(readCertified, sq{name: name, node: q}))
			}
		}
		seeds = append(seeds, seed(fmt.Sprint(tol), approxTestGraph(tb, 20), optVec{k: 5, tol: tol, workers: 1, rank: 6}, reads...))
	}
	return seeds
}

// Tolerances below MinTolerance answer the exact kernels' bits.
func TestToleranceZeroIsBitwiseExact(t *testing.T) { replay(t, toleranceZeroSeeds) }

func toleranceZeroSeeds(tb testing.TB) []engineSeed {
	return everyMeasure(tb, []float64{0, simstar.MinTolerance / 2}, []int{0, 19})
}

// Batches under a tolerance answer what SingleSourceCertified answers, a
// per-query tolerance included, and BatchTopK carries the certificate.
func TestBatchCertifiedApprox(t *testing.T) { replay(t, batchCertifiedApproxSeeds) }

func batchCertifiedApproxSeeds(tb testing.TB) []engineSeed {
	return []engineSeed{seed("tolerance", approxTestGraph(tb, 24), optVec{k: 5, tol: 1e-4, workers: 1, rank: 6},
		rd(readMulti, sq{name: gsr, node: 1}, sq{name: gsr, node: 2}, sq{name: gsr, node: 1},
			sq{name: esr, node: 5}, sq{name: rwr, node: 9}, sq{name: simstar.MeasurePRank, node: 4}),
		rd(readMulti, sq{name: gsr, node: 11, over: ovTol0}, sq{name: gsr, node: 12, over: ovTol3}),
		rd(readBatchTopK, sq{name: gsr, node: 1, k: 5}))}
}

// After ApplyEdits every measure answers bitwise what an engine built on
// the edited graph answers, through every pooled path, though the edit
// grows the graph under pools of the old node count.
func TestApplyEditsBitwiseConformance(t *testing.T) { replay(t, applyEditsSeeds) }

func applyEditsSeeds(testing.TB) []engineSeed {
	const n = 20
	rng := rand.New(rand.NewSource(21))
	edges := randomEdges(rng, n, 80)
	g, set := simstar.GraphFromEdges(n, edges), map[[2]int]bool{}
	for _, e := range edges {
		set[e] = true
	}
	var edits []byte
	for _, e := range churn(rng, n, set, 12) {
		op := byte(0) // insert
		if e.Op == simstar.EditDelete {
			op = 1
		}
		edits = append(edits, op, byte(e.U), byte(e.V))
	}
	edits = append(edits, 3, 1, 0) // insert (n+1, 0), growing the graph
	var seeds []engineSeed
	for _, name := range builtins() {
		var reads [][]byte
		for _, q := range []int{7, n + 1} {
			reads = append(reads, rd(readInto, sq{name: gsr, node: q}), rd(readTopK, sq{name: esr, node: q, k: 5}),
				rd(readSingle, sq{name: gsr, node: q, over: ovTol3}),
				rd(readBatchTopK, sq{name: gsr, node: q, k: 5}, sq{name: rwr, node: 0, k: 5}))
		}
		reads = append(reads, rd(readAllPairs, sq{name: name}))
		for _, q := range []int{0, 7, n + 1} {
			reads = append(reads, rd(readSingle, sq{name: name, node: q}))
		}
		s := seed(name, g, optVec{c: 0.6, k: 4, cache: -1, workers: 1, rank: 6}, reads...)
		s.edits = edits
		seeds = append(seeds, s)
	}
	return seeds
}

// Every measure's SingleSource is its AllPairs row.
func TestMeasureConformanceSingleSourceIsAllPairsRow(t *testing.T) {
	replay(t, measureConformanceSeeds)
}

func measureConformanceSeeds(tb testing.TB) []engineSeed {
	var seeds []engineSeed
	for _, name := range builtins() {
		reads := [][]byte{rd(readAllPairs, sq{name: name})}
		for q := range 7 {
			reads = append(reads, rd(readSingle, sq{name: name, node: q}))
		}
		seeds = append(seeds, seed(name, toyGraph(tb), optVec{c: 0.6, k: 4, workers: 1, rank: 6}, reads...))
	}
	return seeds
}

// Every call that hands out a vector hands out its own copy: overwriting
// what one read returned changes no later read of the key, by vector or by
// ranking. The keeping measure overwrites the slice it returned instead.
func TestCacheReturnsPrivateCopies(t *testing.T) { replay(t, privateCopiesSeeds) }

func privateCopiesSeeds(tb testing.TB) []engineSeed {
	reads := func(m string) [][]byte {
		one := sq{name: m}
		all := sq{name: m, k: 7}
		return [][]byte{
			rd(readSingle, one), rd(readCertified, one), rd(readMulti, one, sq{name: m, dup: true}),
			rd(readMulti, sq{name: m, trace: true}), rd(readInto, one),
			rd(readTopK, all), rd(readBatchTopK, all), rd(readBatchTopK, sq{name: m, k: 7, trace: true}),
		}
	}
	var seeds []engineSeed
	for _, c := range []struct {
		name, measure string
		first         []byte
	}{
		{"SingleSource", gsr, rd(readSingle, sq{name: gsr})},
		{"SingleSourceCertified", gsr, rd(readCertified, sq{name: gsr})},
		{"MultiSource/representative", gsr, rd(readMulti, sq{name: gsr}, sq{name: gsr, dup: true})},
		{"MultiSource/duplicate", gsr, rd(readMulti, sq{name: gsr}, sq{name: gsr})},
		{"MultiSource/traced", gsr, rd(readMulti, sq{name: gsr, trace: true})},
		{"SingleSourceInto/no-kernel-row", simrank, rd(readInto, sq{name: simrank})},
		{"Measure/keeps-returned-slice", keepsName, rd(readSingle, sq{name: keepsName})},
	} {
		seeds = append(seeds, seed(c.name, toyGraph(tb), optVec{k: 5, workers: 1, rank: 6}, append([][]byte{c.first}, reads(c.measure)...)...))
	}
	return seeds
}

// One bad query fails alone, in either batch call.
func TestMultiSourcePerQueryErrors(t *testing.T) { replay(t, perQueryErrorsSeeds) }

func perQueryErrorsSeeds(tb testing.TB) []engineSeed {
	queries := []sq{{name: gsr, k: 3}, {name: "no-such-measure", k: 3}, {name: gsr, node: oob, k: 3}, {name: rwr, node: 2, k: 3}}
	return []engineSeed{seed("bad-queries", toyGraph(tb), optVec{k: 4, workers: 1, rank: 6},
		rd(readMulti, queries...), rd(readBatchTopK, queries...))}
}

// A damping factor no measure can run — NaN, negative or at least 1 — is
// refused by every entry point, the engine's and the standalone
// Measures'; 0 keeps selecting the default.
func TestOutOfRangeCRefused(t *testing.T) { replay(t, outOfRangeCSeeds) }

func outOfRangeCSeeds(tb testing.TB) []engineSeed {
	var seeds []engineSeed
	for _, c := range append([]float64{0, 0.5}, badCDraws...) {
		seeds = append(seeds, seed(fmt.Sprint(c), toyGraph(tb), optVec{c: c, workers: 1, rank: 6},
			rd(readSingle, sq{name: gsr, node: 1}), rd(readCertified, sq{name: gsr, node: 1, over: ovTol3}),
			rd(readInto, sq{name: gsr, node: 1}), rd(readTopK, sq{name: rwr, node: 1, k: 3}),
			rd(readMulti, sq{name: gsr, node: 1}), rd(readBatchTopK, sq{name: simstar.MeasurePRank, node: 1, k: 3}),
			rd(readAllPairs, sq{name: simstar.MeasureGeometricMemo}), rd(readAllPairs, sq{name: rwr}),
			rd(readSingle, sq{name: rwr, node: 1}), rd(readAllPairs, sq{name: simrank}), rd(readSingle, sq{name: simrank, node: 1})))
	}
	return seeds
}

// foundSeeds are the contract breaks FuzzEngine found, each mended:
//   - sieve: WithSieve under WithTolerance ran the sieved kernels, which
//     apply no sieve, so answers strayed by up to the sieve from the
//     oracle under a certificate of about 1e-12;
//   - deadline and fault: a batch query took the outcome of an earlier
//     duplicate whose per-query deadline or fault hook failed it;
//   - zero-iterations: an ε at or above C ran gSR* and eSR* at K = 0 and
//     every other measure at K = 5, where every read must be refused;
//   - keeps: with the cache off, a registered measure's slice went to the
//     caller uncopied, and the measure's later writes changed it.
//
// lru drives a two-entry cache across epochs and exact donors.
func foundSeeds(tb testing.TB) []engineSeed {
	g := simstar.GraphFromEdges(20, randomEdges(rand.New(rand.NewSource(30)), 20, 60))
	var sieved [][]byte
	for _, name := range []string{gsr, esr, rwr} {
		for q := 0; q < 20; q += 3 {
			sieved = append(sieved, rd(readCertified, sq{name: name, node: q}))
		}
		sieved = append(sieved, rd(readTopK, sq{name: name, node: 4, k: 8}), rd(readInto, sq{name: name, node: 5}),
			rd(readMulti, sq{name: name, node: 6}, sq{name: name, node: 6, over: ovSieveTol}))
	}
	var zero [][]byte
	for _, name := range builtins() {
		zero = append(zero, rd(readSingle, sq{name: name, node: 0}), rd(readAllPairs, sq{name: name}))
	}
	lru := seed("lru", g, optVec{k: 4, cache: 2, workers: 1, rank: 6},
		rd(readSingle, sq{name: gsr, node: 1}), rd(readMulti, sq{name: gsr, node: 1, over: ovTol3}, sq{name: rwr, node: 2}),
		rd(readBatchTopK, sq{name: gsr, node: 1, k: 3}, sq{name: gsr, node: 1, k: 3, over: ovTol4}, sq{name: rwr, node: 2, k: 3}),
		rd(readInto, sq{name: gsr, node: 3, over: ovTol3}), rd(readMulti, sq{name: gsr, node: 3, over: ovTol3}, sq{name: "GSR*", node: 1}))
	lru.edits = []byte{0, 1, 2, 3 | 128, 2, 7, 0, 5, 6}
	return []engineSeed{
		seed("sieve/1e-3", g, optVec{k: 5, sieve: 1e-3, tol: 1e-6, workers: 1, rank: 6}, sieved...),
		seed("sieve/1e-2", g, optVec{k: 5, sieve: 1e-2, tol: 1e-6, workers: 2, rank: 6}, sieved...),
		seed("deadline", g, optVec{k: 5, cache: -1, workers: 1, rank: 6},
			rd(readMulti, sq{name: gsr, node: 5, over: ovExpired}, sq{name: gsr, node: 5, dup: true}),
			rd(readBatchTopK, sq{name: rwr, node: 2, k: 4, over: ovExpired}, sq{name: rwr, node: 2, k: 4, dup: true, over: ovHour})),
		seed("fault", g, optVec{k: 5, workers: 1, rank: 6},
			rd(readMulti, sq{name: gsr, node: 3, over: ovPanic}, sq{name: gsr, node: 3, dup: true}, sq{name: gsr, node: 3, over: ovPanic})),
		seed("zero-iterations", simstar.GraphFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}}), optVec{eps: 0.7, workers: 1, rank: 6}, zero...),
		seed("keeps", toyGraph(tb), optVec{cache: -1, workers: 1, rank: 6},
			rd(readSingle, sq{name: keepsName}), rd(readCertified, sq{name: keepsName, node: 1}),
			rd(readMulti, sq{name: keepsName, node: 2}, sq{name: keepsName, node: 2, dup: true})),
		lru,
	}
}

// randomSeeds are inputs of random bytes: random graphs, edit scripts,
// options and reads.
func randomSeeds(testing.TB) []engineSeed {
	rng := rand.New(rand.NewSource(1))
	bytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var seeds []engineSeed
	for range 8 {
		seeds = append(seeds, engineSeed{graph: bytes(1 + rng.Intn(97)), edits: bytes(rng.Intn(40)), opts: bytes(9), reads: bytes(rng.Intn(160))})
	}
	return seeds
}
