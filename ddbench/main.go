// Command ddbench is the DD-DGMS benchmark of record. One command runs a
// named workload against separately launched `ddgms serve` processes,
// checks every answer against a scalar oracle, and prints every metric
// by name and unit; a traced run (-trace 1) replays the same seeded
// requests in-process and reports per-layer numbers. See README.md.
//
// Usage, from the repository root (ddbench/run.sh builds and runs it):
//
//	ddbench -workload explore-1x -seed 1 -seconds 10 -trace 0
//	ddbench -compare parent.jsonl change.jsonl
//	ddbench -smoke
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name     string
	patients int // cohort size served
	setups   int // serve launches timed per run; setup_s is their median
	ingest   bool
}

var workloads = []workload{
	{name: "explore-1x", patients: paperPatients, setups: 5},
	{name: "explore-16x", patients: 16 * paperPatients, setups: 3},
	{name: "ingest-replica", patients: paperPatients, setups: 3, ingest: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what one run needs about its surroundings.
type env struct {
	root    string // repository root
	bin     string // the ddgms binary
	work    string // build and scratch area (.bench_build)
	runDir  string // this run's scratch directory
	digest  string
	client  *http.Client
	seconds time.Duration
	seed    int64
	trace   bool
	clients int
}

// warmup is the closed-loop drive before measuring; it fills the cube's
// aggregate lattice and the kernel's dictionary caches with the same
// query shapes the measured stream uses.
const warmup = 2 * time.Second

// warmupStream offsets the warm-up clients' streams from the measured ones.
const warmupStream = 100

func main() {
	stopAllOnSignal()
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ddbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root (holds cmd/ddgms and .bench_build)")
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "request-stream seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	compare := fs.Bool("compare", false, "compare two result sets: ddbench -compare PARENT CHANGE")
	bench := fs.String("benchmark", "", "BENCHMARK.json with the bounds (default: ROOT/BENCHMARK.json)")
	smoke := fs.Bool("smoke", false, "run every workload, untraced and traced, for -seconds each, with every check on")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "ddbench: -compare needs two result files or directories")
			return 2
		}
		path := *bench
		if path == "" {
			path = filepath.Join(*root, "BENCHMARK.json")
		}
		if err := runCompare(os.Stdout, path, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "ddbench:", err)
			return 1
		}
		return 0
	}
	if *smoke {
		return runSmoke(*root, *seed, *seconds)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "ddbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ddbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	res, err := runWorkload(*root, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddbench:", err)
		return 1
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "ddbench: check failed:", e)
	}
	line, _ := json.Marshal(summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runWorkload runs one workload once and writes its result file.
func runWorkload(root string, w workload, seed int64, seconds int, trace bool) (*result, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, ".bench_build")
	e := &env{
		root:    root,
		bin:     filepath.Join(work, "bin", "ddgms"),
		work:    work,
		runDir:  filepath.Join(work, "run", fmt.Sprintf("%s-%d-%v", w.name, seed, trace)),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: 60 * time.Second},
		seconds: time.Duration(seconds) * time.Second,
		seed:    seed,
		trace:   trace,
		clients: min(2, runtime.NumCPU()),
	}
	if _, err := os.Stat(e.bin); err != nil {
		return nil, fmt.Errorf("no ddgms binary at %s (build it with ddbench/run.sh): %w", e.bin, err)
	}
	if e.digest, err = sourceDigest(root); err != nil {
		return nil, err
	}
	os.RemoveAll(e.runDir)
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	tr := 0
	if trace {
		tr = 1
	}
	res := &result{
		Schema: resultSchema, Workload: w.name, Seed: seed, Seconds: seconds, Trace: tr,
		Host: collectHost(e.digest), Correct: true,
		Inputs: inputs{RequestSeed: seed, Clients: e.clients, Mix: map[string]int{}},
	}
	for _, m := range mixWeights {
		res.Inputs.Mix[m.class] = m.weight
	}
	if w.ingest {
		err = runIngest(e, w, res)
	} else {
		err = runExplore(e, w, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if res.Attempted == 0 {
		return nil, errors.New(w.name + ": no operation was attempted")
	}
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeJSONFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, tr)), res); err != nil {
		return nil, err
	}
	os.RemoveAll(e.runDir)
	return res, nil
}

// runSmoke runs every workload untraced and traced for a few seconds and
// fails unless every run is correct with no failed operation.
func runSmoke(root string, seed int64, seconds int) int {
	bad := 0
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(root, w, seed, seconds, trace)
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "smoke %s trace=%v: %v\n", w.name, trace, err)
				bad++
			case !res.Correct || res.Failed > 0:
				fmt.Fprintf(os.Stderr, "smoke %s trace=%v: correct=%v failed=%d/%d %v\n", w.name, trace, res.Correct, res.Failed, res.Attempted, res.Errors)
				bad++
			default:
				names := make([]string, 0, len(res.Metrics))
				for n := range res.Metrics {
					names = append(names, n)
				}
				sort.Strings(names)
				fmt.Fprintf(os.Stderr, "smoke %s trace=%v: ok, %d operations, metrics %s\n", w.name, trace, res.Attempted, strings.Join(names, " "))
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// launchSetups times `ddgms serve args...` from process start to its
// first healthy deep /healthz, n times one after another, and keeps the
// last process running. It returns that process and the median time.
func (e *env) launchSetups(n int, args func(i int) []string, tag string) (*served, float64, error) {
	var times []float64
	var last *served
	for i := 0; i < n; i++ {
		start := time.Now()
		s, err := launch(e.bin, args(i), filepath.Join(e.runDir, fmt.Sprintf("%s-%d.log", tag, i)))
		if err != nil {
			return nil, 0, err
		}
		d, err := s.waitHealthy(e.client, start, 150*time.Second)
		if err != nil {
			s.stop()
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if i < n-1 {
			s.stop()
		} else {
			last = s
		}
	}
	return last, medianFloat(times), nil
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
