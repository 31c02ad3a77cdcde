package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	// Name is the label name; it must match the Prometheus label grammar
	// ([a-zA-Z_][a-zA-Z0-9_]*).
	Name string
	// Value is the label value; rendering escapes it.
	Value string
}

// metricKind discriminates a family's exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labelled instance of a family. Exactly one collector field
// is set, matching the family's kind.
type series struct {
	labels  string // rendered {a="b"} form, "" when unlabelled
	counter *Counter
	fcount  *FloatCounter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]*series
	order  []string // registration-independent render order (sorted keys)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration methods are idempotent: asking twice for
// the same (name, labels) returns the same collector, so layers can share
// counters without coordinating; re-registering a name with a different
// kind panics, since that is a programming error no scrape should mask.
// The zero value is NOT ready — use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates the (family, series) slot, panicking on a kind
// mismatch. Caller holds r.mu.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) (*family, *series, bool) {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	key := renderLabels(labels)
	if s := f.series[key]; s != nil {
		return f, s, false
	}
	s := &series{labels: key}
	f.series[key] = s
	f.order = append(f.order, key)
	sort.Strings(f.order)
	return f, s, true
}

// Counter returns the counter registered under name and labels, creating
// it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, fresh := r.lookup(name, help, kindCounter, labels)
	if fresh {
		s.counter = &Counter{}
	}
	if s.counter == nil {
		panic(fmt.Sprintf("obs: counter %q%s already registered as a float counter", name, s.labels))
	}
	return s.counter
}

// FloatCounter returns the float counter registered under name and labels,
// creating it on first use. It renders as a counter family.
func (r *Registry) FloatCounter(name, help string, labels ...Label) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, fresh := r.lookup(name, help, kindCounter, labels)
	if fresh {
		s.fcount = &FloatCounter{}
	}
	if s.fcount == nil {
		panic(fmt.Sprintf("obs: float counter %q%s already registered as an integer counter", name, s.labels))
	}
	return s.fcount
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, fresh := r.lookup(name, help, kindGauge, labels)
	if fresh {
		s.gauge = &Gauge{}
	}
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: gauge %q%s already registered as a gauge func", name, s.labels))
	}
	return s.gauge
}

// GaugeFunc registers fn as the value source of a gauge series: each render
// calls fn once. Use it for values owned elsewhere (epoch, cache size)
// instead of mirroring them into a Gauge on every change. Re-registering
// the same (name, labels) replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, _ := r.lookup(name, help, kindGauge, labels)
	if s.gauge != nil {
		panic(fmt.Sprintf("obs: gauge %q%s already registered as a plain gauge", name, s.labels))
	}
	s.gaugeFn = fn
}

// Histogram returns the histogram registered under name and labels,
// creating it with the given bucket upper bounds on first use (later calls
// ignore bounds). Bounds must be strictly increasing; an implicit +Inf
// bucket is appended.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, s, fresh := r.lookup(name, help, kindHistogram, labels)
	if fresh {
		s.hist = newHistogram(bounds)
	}
	return s.hist
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and series by
// label set, so successive scrapes of an unchanged registry are
// byte-identical apart from the values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.order {
			writeSeries(bw, f, f.series[key])
		}
	}
	return bw.Flush()
}

// Snapshot returns every sample the exposition would render, keyed
// "name{labels}" (histograms as their _count and _sum samples). It is the
// programmatic view behind simserve's /v1/stats query counts.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, f := range r.families {
		for _, s := range f.series {
			switch {
			case s.counter != nil:
				out[f.name+s.labels] = float64(s.counter.Value())
			case s.fcount != nil:
				out[f.name+s.labels] = s.fcount.Value()
			case s.gauge != nil:
				out[f.name+s.labels] = float64(s.gauge.Value())
			case s.gaugeFn != nil:
				out[f.name+s.labels] = s.gaugeFn()
			case s.hist != nil:
				out[f.name+"_count"+s.labels] = float64(s.hist.Count())
				out[f.name+"_sum"+s.labels] = s.hist.Sum()
			}
		}
	}
	return out
}

// writeSeries renders one series' sample lines.
func writeSeries(w io.Writer, f *family, s *series) {
	switch {
	case s.counter != nil:
		fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(float64(s.counter.Value())))
	case s.fcount != nil:
		fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.fcount.Value()))
	case s.gauge != nil:
		fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(float64(s.gauge.Value())))
	case s.gaugeFn != nil:
		fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.gaugeFn()))
	case s.hist != nil:
		var cum uint64
		for i := range s.hist.bounds {
			cum += s.hist.buckets[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				addLabel(s.labels, "le", formatValue(s.hist.bounds[i])), cum)
		}
		cum += s.hist.buckets[len(s.hist.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, addLabel(s.labels, "le", "+Inf"), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatValue(s.hist.Sum()))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, cum)
	}
}

// renderLabels renders a label set in {a="b",c="d"} form, names sorted, or
// "" for an empty set.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// addLabel splices one more label pair into an already-rendered label set —
// how histogram buckets gain their le label.
func addLabel(rendered, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// escapeLabel escapes a label value per the exposition grammar.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP string per the exposition grammar.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseText parses and validates Prometheus text exposition format,
// returning the samples keyed exactly as Snapshot renders them
// ("name{labels}"). It enforces the structural rules a scrape must hold:
// TYPE lines name a known kind, metric names and label syntax match the
// grammar, and every sample value parses as a float. It exists so tests
// can assert a /metrics body is well-formed, and read its samples, without
// a Prometheus dependency.
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := checkComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		key, val, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// checkComment validates a # HELP / # TYPE line (other comments pass).
func checkComment(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		if !validMetricName(fields[2]) {
			return fmt.Errorf("TYPE line names invalid metric %q", fields[2])
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("TYPE line declares unknown kind %q", fields[3])
		}
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if !validMetricName(fields[2]) {
			return fmt.Errorf("HELP line names invalid metric %q", fields[2])
		}
	}
	return nil
}

// parseSample splits one sample line into its Snapshot key and value.
func parseSample(line string) (string, float64, error) {
	name := line
	rest := ""
	if i := strings.IndexAny(line, "{ \t"); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if !validMetricName(name) {
		return "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	labels := ""
	if strings.HasPrefix(rest, "{") {
		end, err := scanLabels(rest)
		if err != nil {
			return "", 0, err
		}
		labels, rest = rest[:end], rest[end:]
	}
	valStr := strings.TrimSpace(rest)
	// A trailing timestamp is legal exposition; split it off.
	if i := strings.IndexAny(valStr, " \t"); i >= 0 {
		valStr = valStr[:i]
	}
	val, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		return "", 0, fmt.Errorf("invalid sample value %q: %v", valStr, err)
	}
	return name + labels, val, nil
}

// scanLabels validates a {a="b",...} label block starting at s[0] == '{'
// and returns the index just past the closing brace.
func scanLabels(s string) (int, error) {
	i := 1
	for {
		// Label name.
		start := i
		for i < len(s) && isLabelChar(s[i], i > start) {
			i++
		}
		if i == start {
			if i < len(s) && s[i] == '}' && start == 1 {
				return i + 1, nil // empty label set {}
			}
			return 0, fmt.Errorf("invalid label block %q", s)
		}
		if i >= len(s) || s[i] != '=' {
			return 0, fmt.Errorf("invalid label block %q: missing '='", s)
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("invalid label block %q: missing opening quote", s)
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("invalid label block %q: unterminated value", s)
		}
		i++ // closing quote
		if i < len(s) && s[i] == ',' {
			i++
			continue
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		return 0, fmt.Errorf("invalid label block %q: missing '}'", s)
	}
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// isLabelChar reports whether c may appear in a label name at a
// non-initial (rest) or initial position.
func isLabelChar(c byte, rest bool) bool {
	return c == '_' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(rest && c >= '0' && c <= '9')
}
