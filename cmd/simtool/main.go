// Command simtool is the general-purpose CLI over the simstar API: compute
// all-pairs similarities, answer single-source top-k queries, inspect graph
// statistics, and report edge-concentration compression — the operations a
// downstream user of SimRank* needs day to day.
//
// Usage:
//
//	simtool measures
//	simtool stats    -graph g.txt
//	simtool compress -graph g.txt
//	simtool topk     -graph g.txt -query <node> [-k 10] [-measure gsimrank*]
//	simtool pairs    -graph g.txt [-measure gsimrank*] [-top 20]
//	simtool explain  -graph g.txt -query <a> -other <b> [-len 5] [-top 10]
//
// Graphs are SNAP-style edge lists. Measures are selected by registry name
// (`simtool measures` lists them); topk and pairs go through a
// simstar.Engine, so the transition matrices are built once per invocation
// however many queries follow. compress mines the bicliques through the
// engine's explicit mining call.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"

	"repro/internal/bench"
	"repro/internal/eval"
	"repro/simstar"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge-list file (required)")
	measureName := fs.String("measure", simstar.MeasureGeometric, "measure name (see `simtool measures`)")
	c := fs.Float64("c", 0.6, "damping factor")
	k := fs.Int("k", 10, "top-k size")
	iters := fs.Int("iters", 5, "iterations")
	query := fs.String("query", "", "query node (label or id) for topk/explain")
	other := fs.String("other", "", "second node (label or id) for explain")
	maxLen := fs.Int("len", 5, "max total in-link path length for explain")
	top := fs.Int("top", 20, "number of pairs for pairs / paths for explain")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	if cmd == "measures" {
		runMeasures()
		return
	}

	if *graphPath == "" {
		fatal("missing -graph")
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		fatal(err)
	}
	g, err := simstar.ReadGraph(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}

	// Ctrl-C cancels in-flight iterations instead of killing mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []simstar.Option{simstar.WithC(*c), simstar.WithK(*iters)}

	switch cmd {
	case "stats":
		runStats(g)
	case "compress":
		runCompress(g, opts)
	case "topk":
		runTopK(ctx, g, opts, *measureName, *query, *k)
	case "pairs":
		runPairs(ctx, g, opts, *measureName, *top)
	case "explain":
		runExplain(g, *query, *other, *c, *maxLen, *top)
	default:
		usage()
	}
}

func runMeasures() {
	tab := bench.NewTable("measure")
	for _, name := range simstar.Names() {
		tab.Add(name)
	}
	tab.Render(os.Stdout)
}

// runExplain prints the top in-link path pairs behind a SimRank* score —
// the Sec. 3.2 contribution analysis as a tool.
func runExplain(g *simstar.Graph, query, other string, c float64, maxLen, top int) {
	if query == "" || other == "" {
		fatal("explain needs -query and -other")
	}
	a, err := resolveNode(g, query)
	if err != nil {
		fatal(err)
	}
	b, err := resolveNode(g, other)
	if err != nil {
		fatal(err)
	}
	exps := simstar.Explain(g, a, b, c, maxLen, 0)
	fmt.Printf("SimRank*(%s, %s) ≈ %.6f from %d in-link path pairs (length <= %d)\n\n",
		g.Label(a), g.Label(b), simstar.ExplainedScore(exps), len(exps), maxLen)
	tab := bench.NewTable("contribution", "kind", "source", "walk to "+g.Label(a), "walk to "+g.Label(b))
	for i, e := range exps {
		if i >= top {
			break
		}
		kind := "dissymmetric"
		if e.Symmetric() {
			kind = "symmetric"
		}
		tab.Add(fmt.Sprintf("%.6f", e.Contribution), kind, g.Label(e.Source),
			walkString(g, e.WalkToA), walkString(g, e.WalkToB))
	}
	tab.Render(os.Stdout)
}

func walkString(g *simstar.Graph, nodes []int) string {
	if len(nodes) == 1 {
		return g.Label(nodes[0]) + " (source itself)"
	}
	s := ""
	for i, n := range nodes {
		if i > 0 {
			s += "→"
		}
		s += g.Label(n)
	}
	return s
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: simtool {measures|stats|compress|topk|pairs|explain} -graph FILE [flags]")
	os.Exit(2)
}

func fatal(v interface{}) {
	fmt.Fprintln(os.Stderr, "simtool:", v)
	os.Exit(1)
}

func runStats(g *simstar.Graph) {
	st := g.ComputeStats()
	tab := bench.NewTable("stat", "value")
	tab.Add("nodes", st.N)
	tab.Add("edges", st.M)
	tab.Add("density (m/n)", fmt.Sprintf("%.2f", st.Density))
	tab.Add("max in-degree", st.MaxInDeg)
	tab.Add("max out-degree", st.MaxOutDeg)
	tab.Add("sources (no in-links)", st.Sources)
	tab.Add("sinks (no out-links)", st.Sinks)
	tab.Add("self-loops", st.SelfLoops)
	tab.Add("symmetric (undirected)", st.SymmetricShape)
	tab.Render(os.Stdout)
}

func runCompress(g *simstar.Graph, opts []simstar.Option) {
	eng := simstar.NewEngine(g, opts...)
	cs := eng.Compression()
	tab := bench.NewTable("stat", "value")
	tab.Add("edges m", cs.Edges)
	tab.Add("compressed edges m̃", cs.CompressedEdges)
	tab.Add("compression ratio", fmt.Sprintf("%.1f%%", cs.Ratio))
	tab.Add("concentration nodes", cs.Bicliques)
	tab.Add("mining time", cs.MiningTime)
	tab.Add("transition build time", eng.Stats().TransitionTime)
	tab.Render(os.Stdout)
}

func resolveNode(g *simstar.Graph, s string) (int, error) {
	if id, ok := g.NodeByLabel(s); ok {
		return id, nil
	}
	id, err := strconv.Atoi(s)
	if err != nil || id < 0 || id >= g.N() {
		return 0, fmt.Errorf("unknown node %q", s)
	}
	return id, nil
}

func runTopK(ctx context.Context, g *simstar.Graph, opts []simstar.Option, measure, query string, k int) {
	if query == "" {
		fatal("missing -query")
	}
	q, err := resolveNode(g, query)
	if err != nil {
		fatal(err)
	}
	eng := simstar.NewEngine(g, opts...)
	top, err := eng.TopK(ctx, measure, q, k)
	if err != nil {
		fatal(err)
	}
	tab := bench.NewTable("rank", "node", "score")
	for i, r := range top {
		tab.Add(i+1, g.Label(r.Node), fmt.Sprintf("%.6f", r.Score))
	}
	tab.Render(os.Stdout)
}

func runPairs(ctx context.Context, g *simstar.Graph, opts []simstar.Option, measure string, top int) {
	eng := simstar.NewEngine(g, opts...)
	s, err := eng.AllPairs(ctx, measure)
	if err != nil {
		fatal(err)
	}
	at := func(i, j int) float64 {
		a, b := s.At(i, j), s.At(j, i)
		if a > b {
			return a
		}
		return b
	}
	tab := bench.NewTable("rank", "pair", "score")
	for i, p := range eval.TopPairs(g.N(), at, top) {
		tab.Add(i+1, fmt.Sprintf("(%s, %s)", g.Label(p.A), g.Label(p.B)), fmt.Sprintf("%.6f", p.Score))
	}
	tab.Render(os.Stdout)
}
