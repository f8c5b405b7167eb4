package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// expectedJSON pins the simulated statistics of every workload at seeds 1-20
// and the frozen sizes. A move in any of them is a behaviour change, not
// noise: this is the exact gate on data_wa_pct.
//
//go:embed expected.json
var expectedJSON []byte

// workloadResult is one workload's part of a result set.
type workloadResult struct {
	Why       string             `json:"why"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Sim       map[string]float64 `json:"sim"`
	TopSpans  []spanRow          `json:"top_spans_by_self,omitempty"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Failures  []string           `json:"check_failures,omitempty"`
}

// resultSet is what a full report writes and -compare reads.
type resultSet struct {
	Host      hostFacts                 `json:"host"`
	Seed      int64                     `json:"seed"`
	Quick     bool                      `json:"quick"`
	Seconds   float64                   `json:"seconds"`
	Runs      int                       `json:"runs"`
	Claim     *string                   `json:"claim"` // this benchmark claims no gain
	Workloads map[string]workloadResult `json:"workloads"`
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkPins compares a run's simulated statistics with the ones expected.json
// pins for its workload and seed. Seeds it does not list, and sizes other
// than the frozen ones, have no pins.
func checkPins(cfg config, r *runResult) []string {
	if !cfg.opts().frozen() {
		return nil
	}
	var pins map[string]map[string]map[string]float64 // workload, seed, statistic
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return []string{fmt.Sprintf("expected.json: %v", err)}
	}
	want := pins[r.Workload][strconv.FormatInt(cfg.seed, 10)]
	var out []string
	for _, k := range sortedKeys(want) {
		if got := r.Sim[k]; math.Abs(got-want[k]) > 1e-9*math.Max(1, math.Abs(want[k])) {
			out = append(out, fmt.Sprintf("seed %d pins %s = %v, measured %v", cfg.seed, k, want[k], got))
		}
	}
	return out
}

// fullReport runs every selected workload cfg.runs times round-robin
// (untraced), then once traced, then the probes; prints every metric and
// returns the result set and whether every check passed. A nil set means the
// harness itself failed.
func fullReport(cfg config, stdout io.Writer) (*resultSet, bool) {
	set := &resultSet{
		Host: host(), Seed: cfg.seed, Quick: cfg.quick, Seconds: cfg.seconds, Runs: cfg.runs(),
		Workloads: make(map[string]workloadResult),
	}
	untraced := make(map[string][]*runResult)
	for r := 0; r < cfg.runs(); r++ {
		for _, w := range cfg.only {
			fmt.Fprintf(cfg.stderr, "bench: run %d/%d of %s\n", r+1, cfg.runs(), w.Name)
			res, err := measure(cfg, w, false)
			if err != nil {
				fmt.Fprintln(cfg.stderr, err)
				return nil, false
			}
			untraced[w.Name] = append(untraced[w.Name], res)
		}
	}
	traced := make(map[string]*runResult)
	for _, w := range cfg.only {
		fmt.Fprintf(cfg.stderr, "bench: traced run of %s\n", w.Name)
		res, err := measure(cfg, w, true)
		if err != nil {
			fmt.Fprintln(cfg.stderr, err)
			return nil, false
		}
		traced[w.Name] = res
	}
	fmt.Fprintln(cfg.stderr, "bench: probes")
	probes := runProbes(cfg.quick)

	ok := true
	for _, w := range cfg.only {
		runs, tr := untraced[w.Name], traced[w.Name]
		wr := workloadResult{
			Why: w.Why, EndToEnd: make(map[string]summary), PerLayer: tr.Layer,
			Sim: runs[0].Sim, TopSpans: tr.TopSpans,
		}
		over := func(name string) []float64 {
			var vals []float64
			for _, r := range runs {
				vals = append(vals, r.E2E[name])
			}
			return vals
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = summarize(d.Unit, over(d.Name))
		}
		for k, v := range probes {
			wr.PerLayer[k] = v
		}
		for _, d := range perLayer {
			wr.PerLayer[d.Name] += 0 // a layer the workload does not exercise reads 0
		}
		wr.PerLayer[krunMetric] = median(over(krunMetric))
		med := runResult{E2E: map[string]float64{"replay_pages_per_s": wr.EndToEnd["replay_pages_per_s"].Median}}
		wr.PerLayer["bench.trace_overhead_pct"] = traceOverheadPct(&med, tr)
		for _, r := range append(append([]*runResult(nil), runs...), tr) {
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			wr.Failures = append(wr.Failures, r.Failures...)
			wr.Failures = append(wr.Failures, checkPins(cfg, r)...)
			wr.Failures = append(wr.Failures, checkTransparent(runs[0], r)...)
		}
		if len(wr.Failures) > 0 || wr.Failed > 0 {
			ok = false
		}
		set.Workloads[w.Name] = wr
		printWorkload(stdout, w, wr)
	}
	return set, ok
}

func printWorkload(w io.Writer, spec workloadSpec, wr workloadResult) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", spec.Name, spec.Why)
	fmt.Fprintf(w, "%-26s %-8s %14s %14s %14s %14s %14s %3s\n", "end-to-end", "unit", "median", "q1", "q3", "min", "max", "n")
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		fmt.Fprintf(w, "%-26s %-8s %14.6g %14.6g %14.6g %14.6g %14.6g %3d\n", d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", wr.Attempted, wr.Failed)
	fmt.Fprintf(w, "%-28s %-6s %16s\n", "per-layer (traced run)", "unit", "value")
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-28s %-6s %16.6g\n", d.Name, d.Unit, wr.PerLayer[d.Name])
	}
	if len(wr.TopSpans) > 0 {
		fmt.Fprintln(w, "top spans by self time (traced run):")
		for _, s := range wr.TopSpans {
			fmt.Fprintf(w, "  %-24s self %9.3f s (%5.1f%% of replay)  total %9.3f s  count %d\n", s.Name, s.SelfS, s.SelfPct, s.TotalS, s.Count)
		}
	}
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
}

// verdict compares one metric's two summaries on a workload under the
// metric's definition.
func verdict(d metricDef, w workloadSpec, a, b summary) string {
	worse := func(x, y float64) bool { // is y worse than x
		if d.Better == "higher" {
			return y < x
		}
		return y > x
	}
	if d.Exact {
		// An exact metric repeats to the last digit, so any move is a
		// behaviour change, and a value that varies within one set cannot be
		// called at all.
		switch {
		case a.Min != a.Max || b.Min != b.Max:
			return "unresolved"
		case a.Median == b.Median:
			return "same"
		case worse(a.Median, b.Median):
			return "worse"
		default:
			return "better"
		}
	}
	allowed := math.Max(d.bound(w)*math.Abs(a.Median), d.AbsBound)
	if math.Max(a.Q3-a.Q1, b.Q3-b.Q1) > allowed {
		// Too noisy to call, unless the two sets do not even overlap.
		switch {
		case d.Better == "higher" && b.Min > a.Max, d.Better == "lower" && b.Max < a.Min:
			return "better"
		case d.Better == "higher" && b.Max < a.Min, d.Better == "lower" && b.Min > a.Max:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case math.Abs(b.Median-a.Median) <= allowed:
		return "same"
	case worse(a.Median, b.Median):
		return "worse"
	default:
		return "better"
	}
}

// compareSets prints the verdict table and returns how many pairs moved
// (worse, better, or an exact count that differs) and how many were too noisy
// to call.
func compareSets(a, b *resultSet, stdout io.Writer) (moved, unresolved int) {
	fmt.Fprintf(stdout, "%-20s %-26s %14s %9s %14s %9s  %s\n", "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "verdict")
	for _, w := range workloads {
		wa, okA := a.Workloads[w.Name]
		wb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			if okA != okB {
				fmt.Fprintf(stdout, "%-20s is in only one of the sets\n", w.Name)
			}
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(d, w, sa, sb)
			switch v {
			case "same":
			case "unresolved":
				unresolved++
			default:
				moved++
			}
			fmt.Fprintf(stdout, "%-20s %-26s %14.6g %8.2f%% %14.6g %8.2f%%  %s\n", w.Name, d.Name, sa.Median, sa.spread()*100, sb.Median, sb.spread()*100, v)
		}
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			if va, vb := wa.PerLayer[d.Name], wb.PerLayer[d.Name]; va != vb {
				moved++
				fmt.Fprintf(stdout, "%-20s %-26s %14.6g %9s %14.6g %9s  %s\n", w.Name, d.Name, va, "", vb, "", "exact count moved")
			}
		}
	}
	return moved, unresolved
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadResultSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if a.Seed != b.Seed || a.Quick != b.Quick || a.Seconds != b.Seconds {
		fmt.Fprintf(stdout, "note: the sets were measured differently (seed %d/%d, quick %v/%v, seconds %v/%v); exact metrics will differ\n",
			a.Seed, b.Seed, a.Quick, b.Quick, a.Seconds, b.Seconds)
	}

	compareSets(a, b, stdout)
	return 0
}

// runSelfcheck measures two full sets with this binary and fails if any
// end-to-end pair reads "worse" or "better" or any exact count differs. A pair
// whose spread is wider than its bound is reported as unresolved: on a noisy
// host the wall and CPU figures cannot be told apart at ISSUE 11's bounds,
// and saying so is the protocol, not a failure of the binary.
func runSelfcheck(cfg config, stdout io.Writer) int {
	a, okA := fullReport(cfg, io.Discard)
	if a == nil {
		return 1
	}
	b, okB := fullReport(cfg, io.Discard)
	if b == nil {
		return 1
	}
	for i, set := range []*resultSet{a, b} {
		name := fmt.Sprintf("selfcheck-%c.json", 'A'+i)
		if err := writeJSONFile(cfg.outDir, name, set); err != nil {
			fmt.Fprintln(cfg.stderr, err)
			return 1
		}
	}
	moved, unresolved := compareSets(a, b, stdout)
	if moved > 0 || !okA || !okB {
		fmt.Fprintf(stdout, "selfcheck FAILED: %d pairs differ (checks passed: %v, %v)\n", moved, okA, okB)
		return 1
	}
	fmt.Fprintf(stdout, "selfcheck passed: no pair of the two sets differs; %d unresolved (spread wider than the bound)\n", unresolved)
	return 0
}
