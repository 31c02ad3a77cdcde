package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// e2eMetrics lists the end-to-end metrics in report order, with the
// direction in which each is better, followed by the two figures every
// run records but BENCHMARK.json does not gate.
var e2eMetrics = []struct {
	name  string
	lower bool
	gated bool
}{
	{"setup_s", true, true},
	{"latency_p50_ms", true, true},
	{"edit_p50_ms", true, true},
	{"peak_rss_mb", true, true},
	{"latency_p90_ms", true, false},
	{"throughput_qps", false, false},
}

// steadyRun is what one child run reported.
type steadyRun struct {
	metrics         map[string]float64
	alu, mem, steal float64
	failed          int
	correct         bool
}

// runSteady runs every workload n times in each of two sets, workloads
// interleaved round-robin so host drift spreads over all of them, each run
// with its own seed, and prints per set each end-to-end metric's median
// and quartile spread next to the host calibration medians.
func runSteady(ctx context.Context, cfg runConfig, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runs := make([]map[string][]steadyRun, 2)
	for set := range runs {
		runs[set] = make(map[string][]steadyRun)
		for i := 0; i < n; i++ {
			for _, w := range workloads {
				seed := int64(100*(set+1) + i + 1)
				r, err := steadyOnce(ctx, exe, w.name, seed, cfg.seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d: %v\n", set+1, i+1, w.name, seed, r.metrics)
				runs[set][w.name] = append(runs[set][w.name], r)
			}
		}
	}
	printSteady(runs, n, cfg.seconds)
	return nil
}

func steadyOnce(ctx context.Context, exe, workload string, seed int64, seconds int) (steadyRun, error) {
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	// SIGTERM, not SIGKILL, so the child stops its own server.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return steadyRun{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return steadyRun{}, fmt.Errorf("short output %q", out)
	}
	var rep struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	var rec struct {
		Record struct {
			Host     map[string]float64 `json:"host"`
			NotGated map[string]float64 `json:"not_gated"`
		} `json:"record"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return steadyRun{}, err
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		return steadyRun{}, err
	}
	h := rec.Record.Host
	r := steadyRun{metrics: map[string]float64{}, alu: h["alu_ms"], mem: h["mem_ms"], steal: h["steal_pct"],
		failed: rep.Failed, correct: rep.Correct}
	for k, v := range rep.Metrics {
		r.metrics[k] = v.Value
	}
	for k, v := range rec.Record.NotGated {
		r.metrics[k] = v
	}
	return r, nil
}

func printSteady(runs []map[string][]steadyRun, n, seconds int) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Two sets of %d runs per workload, --seconds %d, workloads interleaved; spread = (Q3 − Q1) / median, quartiles as Python's statistics.quantiles(n=4).\n\n", n, seconds)
	names := make([]string, 0, len(runs[0]))
	for name := range runs[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "### %s\n\n", name)
		fmt.Fprintf(&b, "| metric | set 1 median | set 1 spread | set 2 median | set 2 spread | set 2 vs set 1 (worse +) |\n|---|---|---|---|---|---|\n")
		for _, m := range e2eMetrics {
			var med, spr [2]float64
			for set := range runs {
				var xs []float64
				for _, r := range runs[set][name] {
					xs = append(xs, r.metrics[m.name])
				}
				med[set], spr[set] = median(xs), spread(xs)
			}
			worse := (med[1] - med[0]) / med[0]
			if !m.lower {
				worse = -worse
			}
			name := m.name
			if !m.gated {
				name += " (not gated)"
			}
			fmt.Fprintf(&b, "| %s | %.4g | %.1f%% | %.4g | %.1f%% | %+.1f%% |\n", name, med[0], 100*spr[0], med[1], 100*spr[1], 100*worse)
		}
		for set := range runs {
			var alu, mem, steal []float64
			failed, wrong := 0, 0
			for _, r := range runs[set][name] {
				alu, mem, steal = append(alu, r.alu), append(mem, r.mem), append(steal, r.steal)
				failed += r.failed
				if !r.correct {
					wrong++
				}
			}
			fmt.Fprintf(&b, "\nset %d: host.alu_ms median %.1f (spread %.1f%%), host.mem_ms median %.1f (spread %.1f%%), CPU stolen by the hypervisor in the timed phase median %.1f%% (max %.1f%%), failed ops %d, incorrect runs %d\n",
				set+1, median(alu), 100*spread(alu), median(mem), 100*spread(mem), median(steal), percentile(steal, 100), failed, wrong)
		}
		b.WriteString("\n")
	}
	os.Stdout.Write(b.Bytes())
}
