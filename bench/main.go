// Command bench is the repo's end-to-end replay benchmark and per-layer cost
// ledger. It measures the program from outside — by timing calls into the
// public functions of each layer — and never needs the program edited.
//
//	go run ./bench -seed 1                 every workload: 5 runs each, one traced run, probes
//	go run ./bench -quick                  the same harness on quarter-size drives, N = 1
//	go run ./bench -compare A.json B.json  verdict per workload x end-to-end metric
//	go run ./bench -selfcheck              two full sets of this binary must agree
//	go run ./bench -workload phftl-small -seed 3 -seconds 7 -trace 0
//	                                       one workload, one JSON result line (BENCHMARK.json contract)
//
// Every run of a workload is a fresh child process of this binary, so each
// has a clean heap and its own resident-set high-water mark. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
)

const (
	// reportRuns is the untraced runs per workload of a full report.
	reportRuns = 5
	// seedStride separates the seeds one -workload invocation measures a
	// workload with SeedReps > 1 at.
	seedStride = 1000
)

type config struct {
	seed    int64
	seconds float64
	quick   bool
	outDir  string
	only    []workloadSpec // the workloads of a full report; tests narrow it
	stderr  io.Writer
}

func (c config) opts() runOpts {
	return runOpts{Seed: c.seed, Scale: c.seconds / runSeconds, Quick: c.quick, OutDir: c.outDir}
}

// runs is the untraced runs per workload of a full report.
func (c config) runs() int {
	if c.quick {
		return 1
	}
	return reportRuns
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload-generator seed (1 = the stock, golden-pinned profiles)")
	workload := fs.String("workload", "", "measure one workload and print one JSON result line (BENCHMARK.json contract)")
	seconds := fs.Float64("seconds", runSeconds, "timed-section length the run is sized for; scales every timed section from the frozen sizes")
	traced := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	quick := fs.Bool("quick", false, "quarter-size drives, 1 drive write timed, one run per workload, no pins or allocation ceilings")
	outDir := fs.String("outdir", filepath.Join("bench", "out"), "directory for trace files, result sets and the sweep's JSONL sink")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	selfcheck := fs.Bool("selfcheck", false, "run two full sets and fail if any end-to-end pair reads worse or better or an exact count differs")
	child := fs.Bool("child", false, "internal: measure in this process and print the raw result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, outDir: *outDir, only: workloads, stderr: stderr}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *child:
		o := cfg.opts()
		o.Traced = *traced == 1
		return runChild(*workload, o, stdout, stderr)
	case *workload != "":
		return runContract(cfg, *workload, *traced == 1, stdout)
	case *selfcheck:
		return runSelfcheck(cfg, stdout)
	default:
		return runReport(cfg, stdout)
	}
}

// resultsName is the file a full report writes its result set to, in the
// output directory.
func resultsName(seed int64) string { return "results-seed" + strconv.FormatInt(seed, 10) + ".json" }

// runReport is the default mode: the full report, its result set written to
// the output directory.
func runReport(cfg config, stdout io.Writer) int {
	set, ok := fullReport(cfg, stdout)
	if set == nil {
		return 1
	}
	if err := writeJSONFile(cfg.outDir, resultsName(cfg.seed), set); err != nil {
		fmt.Fprintln(cfg.stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult set written to %s\n", filepath.Join(cfg.outDir, resultsName(cfg.seed)))
	if !ok {
		fmt.Fprintln(stdout, "FAIL: one or more correctness checks failed")
		return 1
	}
	fmt.Fprintln(stdout, "all correctness checks passed")
	return 0
}

// runChild measures one workload in this process and prints the raw result
// as one JSON line.
func runChild(name string, o runOpts, stdout, stderr io.Writer) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	var res *runResult
	var err error
	if w.isSweep() {
		res, err = runSweep(w, o)
	} else {
		res, err = runSingle(w, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if res.E2E != nil {
		res.E2E["failed_ops_pct"] = float64(res.Failed) / float64(res.Attempted) * 100
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// measure runs one child process and returns its result. The child is this
// same binary, so the run starts from a clean heap.
func measure(cfg config, w workloadSpec, traced bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", "-workload", w.Name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-outdir", cfg.outDir,
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	// An interrupted parent takes its child with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv)
	cmd.Stderr = cfg.stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: %s child: %w", w.Name, err)
	}
	var res runResult
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("bench: %s child output: %w", w.Name, err)
	}
	return &res, nil
}

// childEnv marks a child process. The package's tests re-exec the test
// binary as the bench binary when they see it (see TestMain).
const childEnv = "PHFTL_BENCH_CHILD=1"

// contractLine is the one-line result BENCHMARK.json's contract asks for.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted uint64                   `json:"attempted"`
	Failed    uint64                   `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract measures one workload and prints the contract's result line:
// the bounded end-to-end metrics of untraced runs, or (traced) every
// unbounded metric — the per-layer ledger from one traced run plus the
// probes, and the end-to-end metrics that carry no contract bound.
func runContract(cfg config, name string, traced bool, stdout io.Writer) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(cfg.stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(cfg.stderr, err)
		return 1
	}
	// One full measurement per seed: one seed, or SeedReps of them seedStride
	// apart. Every metric is the median over them.
	reps := max(1, w.SeedReps)
	if traced || cfg.quick {
		reps = 1
	}
	var (
		full     []*runResult
		failures []string
	)
	for i := 0; i < reps; i++ {
		c := cfg
		c.seed += int64(i) * seedStride
		r, err := measure(c, w, false)
		if err != nil {
			return fail(err)
		}
		full = append(full, r)
		failures = append(append(failures, r.Failures...), checkPins(c, r)...)
	}
	line := contractLine{Metrics: make(map[string]contractValue)}
	e2e := func(name string) float64 {
		var vals []float64
		for _, r := range full {
			vals = append(vals, r.E2E[name])
		}
		return median(vals)
	}
	for _, r := range full {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}

	if !traced {
		for _, d := range contractEndToEnd() {
			line.Metrics[d.Name] = contractValue{Value: e2e(d.Name), Unit: d.Unit}
		}
	} else {
		base := full[0]
		tr, err := measure(cfg, w, true)
		if err != nil {
			return fail(err)
		}
		failures = append(failures, tr.Failures...)
		failures = append(failures, checkTransparent(base, tr)...)
		layer := tr.Layer
		for k, v := range runProbes(cfg.quick) {
			layer[k] = v
		}
		layer["bench.trace_overhead_pct"] = traceOverheadPct(base, tr)
		layer[krunMetric] = base.E2E[krunMetric]
		for _, d := range endToEnd {
			layer[d.Name] = e2e(d.Name)
		}
		line.Failed += tr.Failed
		for _, d := range contractPerLayer() {
			line.Metrics[d.Name] = contractValue{Value: layer[d.Name], Unit: d.Unit}
		}
	}
	for _, f := range failures {
		fmt.Fprintf(cfg.stderr, "bench: %s: check failed: %s\n", w.Name, f)
	}
	line.Correct = len(failures) == 0 && line.Failed == 0
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		return fail(err)
	}
	return 0
}

// traceOverheadPct is the share of untraced throughput the traced run lost.
func traceOverheadPct(untraced, traced *runResult) float64 {
	u, t := untraced.E2E["replay_pages_per_s"], traced.E2E["replay_pages_per_s"]
	if u == 0 {
		return 0
	}
	return (u - t) / u * 100
}

// checkTransparent requires the traced run's simulated statistics to equal
// the untraced run's: the wrappers must not change behaviour.
func checkTransparent(untraced, traced *runResult) []string {
	var out []string
	for _, k := range sortedKeys(untraced.Sim) {
		if u, t := untraced.Sim[k], traced.Sim[k]; u != t {
			out = append(out, fmt.Sprintf("traced run changed %s: %v untraced, %v traced", k, u, t))
		}
	}
	return out
}

// hostFacts describes the machine a result set was measured on.
type hostFacts struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func host() hostFacts {
	return hostFacts{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}
