package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format is the SNAP-style edge list used by the paper's datasets:
// one "u<TAB>v" (or space-separated) pair per line, '#' comments, blank lines
// ignored. If any endpoint is non-numeric the whole file is treated as
// labelled.

// ReadEdgeList parses an edge list from r.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	labelled := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want two fields, got %q", lineNo, line)
		}
		u, errU := strconv.Atoi(fields[0])
		v, errV := strconv.Atoi(fields[1])
		if labelled || errU != nil || errV != nil {
			labelled = true
			b.AddEdgeLabeled(fields[0], fields[1])
			continue
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return b.Build()
}

// WriteEdgeList serialises g to w in the format read by ReadEdgeList,
// prefixed with a comment header carrying the node and edge counts.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nodes: %d edges: %d\n", g.N(), g.M())
	var err error
	g.Edges(func(u, v int) {
		if err != nil {
			return
		}
		if g.Labeled() {
			_, err = fmt.Fprintf(bw, "%s\t%s\n", g.Label(u), g.Label(v))
		} else {
			_, err = fmt.Fprintf(bw, "%d\t%d\n", u, v)
		}
	})
	if err != nil {
		return fmt.Errorf("graph: writing edge list: %w", err)
	}
	return bw.Flush()
}

// Binary snapshot format. Unlike the text edge list, the binary form
// serialises the CSR arrays directly, so a server can persist the graph of
// the current epoch and warm-restart without re-parsing text or replaying
// edits. Only the out-direction and labels are written; the in-direction
// CSR is rebuilt on read by a counting pass that reproduces the builder's
// layout exactly, so a round-trip yields a structurally identical graph.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte "SIMGRB1\n"
//	flags   uint32 (bit 0: labelled)
//	n, m    uint64, uint64
//	outOff  (n+1)×uint32
//	outDst  m×uint32
//	labels  n × (uint32 length + bytes), present iff labelled
const binaryMagic = "SIMGRB1\n"

// WriteTo serialises g in the binary snapshot format, implementing
// io.WriterTo. The returned count is the number of bytes written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriterSize(w, 1<<16)}
	if _, err := cw.Write([]byte(binaryMagic)); err != nil {
		return cw.n, err
	}
	var flags uint32
	if g.labels != nil {
		flags |= 1
	}
	var hdr [4 + 8 + 8]byte
	binary.LittleEndian.PutUint32(hdr[0:], flags)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(g.M()))
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	if err := writeInt32s(cw, g.outOff); err != nil {
		return cw.n, err
	}
	if err := writeInt32s(cw, g.outDst); err != nil {
		return cw.n, err
	}
	if g.labels != nil {
		var lbuf [4]byte
		for _, l := range g.labels {
			binary.LittleEndian.PutUint32(lbuf[:], uint32(len(l)))
			if _, err := cw.Write(lbuf[:]); err != nil {
				return cw.n, err
			}
			if _, err := cw.Write([]byte(l)); err != nil {
				return cw.n, err
			}
		}
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadFrom parses the binary snapshot format written by WriteTo and rebuilds
// the in-direction CSR, validating offsets and node ids on the way in.
func ReadFrom(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad binary magic %q", magic)
	}
	var hdr [4 + 8 + 8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading binary header: %w", err)
	}
	flags := binary.LittleEndian.Uint32(hdr[0:])
	if flags&^1 != 0 {
		// Unknown flag bits are a version or corruption signal, not something
		// to ignore: a snapshot written by a future format revision must fail
		// loudly here rather than load as a subtly wrong graph.
		return nil, fmt.Errorf("graph: unknown binary snapshot flags %#x", flags)
	}
	n := binary.LittleEndian.Uint64(hdr[4:])
	m := binary.LittleEndian.Uint64(hdr[12:])
	const maxBinaryNodes = 1 << 31
	if n > maxBinaryNodes || m > maxBinaryNodes {
		return nil, fmt.Errorf("graph: binary snapshot dimensions %d×%d out of range", n, m)
	}
	g := &Graph{n: int(n)}
	var err error
	if g.outOff, err = readInt32s(br, int(n)+1); err != nil {
		return nil, err
	}
	if g.outDst, err = readInt32s(br, int(m)); err != nil {
		return nil, err
	}
	if g.outOff[0] != 0 || g.outOff[n] != int32(m) {
		return nil, fmt.Errorf("graph: binary snapshot offsets do not span %d edges", m)
	}
	for i := 0; i < int(n); i++ {
		if g.outOff[i+1] < g.outOff[i] {
			return nil, fmt.Errorf("graph: binary snapshot offset not monotone at node %d", i)
		}
	}
	for _, v := range g.outDst {
		if v < 0 || uint64(v) >= n {
			return nil, fmt.Errorf("graph: binary snapshot edge target %d out of range [0, %d)", v, n)
		}
	}
	// Rows must be strictly ascending — sorted and deduplicated is the Graph
	// contract (HasEdge binary-searches rows) and what WriteTo produces; a
	// corrupt snapshot must not smuggle in a graph that violates it.
	for u := 0; u < int(n); u++ {
		row := g.outDst[g.outOff[u]:g.outOff[u+1]]
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				return nil, fmt.Errorf("graph: binary snapshot out-row of node %d not strictly sorted", u)
			}
		}
	}
	// Rebuild the in-direction by counting sort over the out arrays. Rows
	// come out sorted because sources are visited in ascending order.
	g.inOff = make([]int32, n+1)
	g.inSrc = make([]int32, m)
	for _, v := range g.outDst {
		g.inOff[v+1]++
	}
	for i := 0; i < int(n); i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	pos := make([]int32, n)
	for u := 0; u < int(n); u++ {
		for _, v := range g.outDst[g.outOff[u]:g.outOff[u+1]] {
			g.inSrc[g.inOff[v]+pos[v]] = int32(u)
			pos[v]++
		}
	}
	if flags&1 != 0 {
		g.labels = make([]string, n)
		g.byLabel = make(map[string]int, n)
		var lbuf [4]byte
		for i := 0; i < int(n); i++ {
			if _, err := io.ReadFull(br, lbuf[:]); err != nil {
				return nil, fmt.Errorf("graph: reading label %d: %w", i, err)
			}
			ln := binary.LittleEndian.Uint32(lbuf[:])
			if ln > 1<<20 {
				return nil, fmt.Errorf("graph: label %d length %d out of range", i, ln)
			}
			b := make([]byte, ln)
			if _, err := io.ReadFull(br, b); err != nil {
				return nil, fmt.Errorf("graph: reading label %d: %w", i, err)
			}
			g.labels[i] = string(b)
			if _, taken := g.byLabel[g.labels[i]]; !taken {
				g.byLabel[g.labels[i]] = i
			}
		}
	}
	// Strict framing: the payload must end exactly where the format says it
	// does. Trailing bytes mean a corrupt snapshot (a torn write, a
	// concatenation accident) masquerading as a valid graph — a warm restart
	// must reject it, not silently serve whatever prefix happened to parse.
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("graph: probing for trailing data: %w", err)
		}
		return nil, fmt.Errorf("graph: trailing data after binary snapshot payload")
	}
	return g, nil
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// writeInt32s encodes vals little-endian in fixed-size chunks, avoiding
// binary.Write's per-call reflection on the hot bulk arrays.
func writeInt32s(w io.Writer, vals []int32) error {
	var buf [4096]byte
	for len(vals) > 0 {
		k := len(buf) / 4
		if k > len(vals) {
			k = len(vals)
		}
		for i := 0; i < k; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(vals[i]))
		}
		if _, err := w.Write(buf[:4*k]); err != nil {
			return fmt.Errorf("graph: writing binary snapshot: %w", err)
		}
		vals = vals[k:]
	}
	return nil
}

// readInt32s decodes count little-endian int32 values. The slice grows as
// data actually arrives rather than being sized from count up front, so a
// corrupt or hostile header claiming billions of entries fails with a read
// error after a bounded allocation instead of attempting a giant make.
func readInt32s(r io.Reader, count int) ([]int32, error) {
	initial := count
	if initial > 1<<16 {
		initial = 1 << 16
	}
	out := make([]int32, 0, initial)
	var buf [4096]byte
	for len(out) < count {
		k := len(buf) / 4
		if k > count-len(out) {
			k = count - len(out)
		}
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return nil, fmt.Errorf("graph: reading binary snapshot: %w", err)
		}
		for j := 0; j < k; j++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[4*j:])))
		}
	}
	return out, nil
}
