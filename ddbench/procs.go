package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// served is one launched `ddgms serve` process.
type served struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	err  error // exit status, valid once done is closed
	logf *os.File
}

// freeAddr picks a loopback address with a free port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// launch starts `ddgms serve args... -addr <free port>`, its output
// going to logPath.
func launch(bin string, args []string, logPath string) (*served, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string{"serve"}, args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &served{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), logf: logf}
	live.Lock()
	live.set[s] = struct{}{}
	live.Unlock()
	go func() {
		s.err = cmd.Wait()
		logf.Close()
		live.Lock()
		delete(live.set, s)
		live.Unlock()
		close(s.done)
	}()
	return s, nil
}

// live is every launched process that has not exited yet.
var live = struct {
	sync.Mutex
	set map[*served]struct{}
}{set: map[*served]struct{}{}}

// stopAllOnSignal makes an interrupt or termination of the benchmark stop
// every process it launched, and wait for them, before it exits.
func stopAllOnSignal() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		live.Lock()
		procs := make([]*served, 0, len(live.set))
		for s := range live.set {
			procs = append(procs, s)
		}
		live.Unlock()
		for _, s := range procs {
			s.stop()
		}
		fmt.Fprintf(os.Stderr, "ddbench: %v: stopped %d launched processes\n", sig, len(procs))
		os.Exit(1)
	}()
}

// waitHealthy polls the deep health probe until it answers 200, and
// returns the time since the process was started.
func (s *served) waitHealthy(client *http.Client, start time.Time, timeout time.Duration) (time.Duration, error) {
	deadline := start.Add(timeout)
	for {
		resp, err := client.Get(s.base + "/healthz?deep=1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return 0, fmt.Errorf("serve exited before becoming healthy (%v); see %s", s.err, s.logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("serve not healthy after %s; see %s", timeout, s.logf.Name())
		}
	}
}

// stop ends the process (SIGTERM, then SIGKILL after a grace period) and
// waits for it to exit.
func (s *served) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// memMB reads one field of the process's /proc status in MB: VmRSS (the
// resident set now) or VmHWM (its peak so far).
func (s *served) memMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, s.cmd.Process.Pid)
}

// sampleRSS reads the resident set every interval until stop is closed,
// then sends the median of the samples: a figure over many collection
// cycles, where one reading depends on where the cycle happens to be.
func (s *served) sampleRSS(interval time.Duration, stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		var samples []float64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if v, err := s.memMB("VmRSS"); err == nil {
				samples = append(samples, v)
			}
			select {
			case <-stop:
				out <- medianFloat(samples)
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// exposition is a parsed Prometheus text exposition: series -> value,
// where a series is the metric name with its label set, as printed.
type exposition map[string]float64

// parseExposition reads the text format: comment lines skipped, every
// other line "series value".
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: malformed value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scrape fetches a serve process's /metrics.
func scrape(client *http.Client, base string) (exposition, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseExposition(resp.Body)
}

// sum adds the series of one family whose labels contain every given
// `key="value"` pair.
func (e exposition) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range e {
		fam, rest, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after minus before, family-wise.
type delta struct{ before, after exposition }

func (d delta) sum(name string, labels ...string) float64 {
	return d.after.sum(name, labels...) - d.before.sum(name, labels...)
}

// postJSON sends one query and returns the status and body.
func postJSON(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
