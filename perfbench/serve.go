package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/simserve from the checkout under test.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/simserve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/simserve: %w", err)
	}
	return nil
}

// server is one simserve process serving g100k at its defaults.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan error
	// setup is the time from process start until /healthz answered with
	// the graph loaded.
	setup time.Duration
}

// startServer launches simserve on a free loopback port and waits for
// /healthz to report the graph loaded. Only -addr and -graph are set.
func startServer(bin, graphPath, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	s := &server{addr: fmt.Sprintf("127.0.0.1:%d", port), done: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", s.addr, "-graph", graphPath)
	s.cmd.Stdout = logf
	s.cmd.Stderr = logf
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting simserve: %w", err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	if err := s.awaitHealthy(start); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// awaitHealthy polls /healthz every 2 ms; simserve listens only once the
// startup engine is built, so the first answer marks the end of set-up.
func (s *server) awaitHealthy(start time.Time) error {
	c := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := start.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("simserve exited during set-up: %v", err)
		default:
		}
		resp, err := c.Get("http://" + s.addr + "/healthz")
		if err == nil {
			var h struct {
				GraphLoaded bool `json:"graph_loaded"`
			}
			err = decodeBody(resp, &h)
			if err == nil && h.GraphLoaded {
				s.setup = time.Since(start)
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("simserve did not become healthy within 120s")
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited after 20 s. It returns once the process has ended.
func (s *server) stop() {
	if s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	// utime and stime are fields 14 and 15 of stat, 12 and 13 after ')'.
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS is a process's VmHWM in MB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape is one reading of the server's counters.
type scrape struct {
	metrics   map[string]float64
	hits      float64
	lookups   float64
	serverCPU time.Duration
	clientCPU time.Duration
	// Host CPU time in all states, and stolen by the hypervisor, in ticks.
	hostTicks, stealTicks float64
}

func (c *client) scrape(pid int) (scrape, error) {
	var sc scrape
	var err error
	if sc.metrics, err = c.metrics(); err != nil {
		return sc, err
	}
	var st struct {
		Cache struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"cache"`
	}
	if err := c.getJSON("/v1/stats", &st); err != nil {
		return sc, err
	}
	sc.hits, sc.lookups = st.Cache.Hits, st.Cache.Hits+st.Cache.Misses
	if sc.serverCPU, err = procCPU(strconv.Itoa(pid)); err != nil {
		return sc, err
	}
	if sc.clientCPU, err = procCPU("self"); err != nil {
		return sc, err
	}
	sc.hostTicks, sc.stealTicks, err = hostCPU()
	return sc, err
}

// hostCPU reads the machine-wide CPU ticks, and the ticks stolen by the
// hypervisor, from the first line of /proc/stat.
func hostCPU() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, err
		}
		// Fields past steal (guest time) are already counted in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
