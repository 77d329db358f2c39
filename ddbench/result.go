package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// resultSchema names the layout of a result file.
const resultSchema = "ddbench/1"

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostInfo records the machine and build a result was measured on.
type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Kernel     string `json:"kernel"`
	CPU        string `json:"cpu"`
	MemTotalMB int    `json:"mem_total_mb"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func collectHost(digest string) hostInfo {
	h := hostInfo{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     os.Getenv("DDBENCH_COMMIT"),
		Source:     digest,
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		h.Kernel = utsString(u.Release[:])
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		var kb int
		for _, line := range strings.Split(string(b), "\n") {
			if _, err := fmt.Sscanf(line, "MemTotal: %d kB", &kb); err == nil {
				h.MemTotalMB = kb / 1024
				break
			}
		}
	}
	return h
}

func utsString(cs []int8) string {
	var b strings.Builder
	for _, c := range cs {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// inputs records what a run was fed: cohort shape and every seed.
type inputs struct {
	Cohort      cohortFiles    `json:"cohort"`
	RequestSeed int64          `json:"request_seed"`
	WriterSeed  int64          `json:"writer_seed,omitempty"`
	Clients     int            `json:"clients"`
	Mix         map[string]int `json:"mix_weights"`
}

// result is one run's full record, written to a result file.
type result struct {
	Schema    string            `json:"schema"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Host      hostInfo          `json:"host"`
	Inputs    inputs            `json:"inputs"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds figures recorded for reference but not compared by
	// the benchmark's bounds.
	Extra  map[string]metric `json:"extra,omitempty"`
	Errors []string          `json:"errors,omitempty"`
}

// summary is the last line the benchmark prints.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) extra(name string, v float64, unit string) {
	if r.Extra == nil {
		r.Extra = map[string]metric{}
	}
	r.Extra[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness failure.
func (r *result) fail(errs ...string) {
	for _, e := range errs {
		r.Correct = false
		if len(r.Errors) < 50 {
			r.Errors = append(r.Errors, e)
		}
	}
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
