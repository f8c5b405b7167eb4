package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the harness tests spawn real children: a full report re-execs
// os.Executable() with childEnv set, and here that is the test binary, so a
// marked process becomes the bench binary instead of running the tests.
func TestMain(m *testing.M) {
	for _, kv := range os.Environ() {
		if kv == childEnv {
			os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the root BENCHMARK.json as the definitions in defs.go
// require it, in the driver contract's schema (exactly these keys).
type benchmarkJSON struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

func wantBenchmarkJSON() benchmarkJSON {
	doc := benchmarkJSON{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, map[string]any{"name": w.Name, "why": w.Why})
	}
	for _, d := range contractEndToEnd() {
		doc.EndToEnd = append(doc.EndToEnd, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.ContractBound})
	}
	for _, d := range contractPerLayer() {
		doc.PerLayer = append(doc.PerLayer, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	return doc
}

// TestSchema holds the metric and workload tables to the driver contract's
// limits and the checked-in BENCHMARK.json and expected.json to the tables.
func TestSchema(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1..16", n)
	}
	if n := len(contractPerLayer()); n < 1 || n > 128 {
		t.Errorf("%d unbounded metrics, contract allows 1..128", n)
	}
	seen := make(map[string]bool)
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if d.ContractBound < 0 || d.ContractBound > 0.25 {
			t.Errorf("metric %s: contract bound %v outside [0, 0.25]", d.Name, d.ContractBound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower" && d.ContractBound > 0
		}
	}
	if !hasSetup {
		t.Error("the contract's end-to-end set must include setup_s (s, lower)")
	}

	want, err := json.MarshalIndent(wantBenchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("BENCHMARK.json does not match defs.go; it should read:\n%s", want)
	}

	var pins map[string]map[string]map[string]float64
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		t.Fatalf("expected.json: %v", err)
	}
	for _, w := range workloads {
		if w.AllocCeilingB <= 0 {
			t.Errorf("%s has no allocation ceiling", w.Name)
		}
		for seed := 1; seed <= 20; seed++ {
			for _, k := range []string{"data_wa_pct", "ftl.gc_passes", "nand.erases", "core.clf_f1"} {
				if _, ok := pins[w.Name][strconv.Itoa(seed)][k]; !ok && !(k == "core.clf_f1" && w.Scheme == "Base") {
					t.Errorf("expected.json pins no %s for %s at seed %d", k, w.Name, seed)
				}
			}
		}
	}
}

// TestQuickHarness runs the whole harness end to end in -quick mode on one
// single-cell workload and the sweep: real child processes, untraced and
// traced runs, probes, checks, the result set, and -compare on its output.
func TestQuickHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns benchmark children")
	}
	dir := t.TempDir()
	mixed, _ := workloadByName("mixed-52T")
	sweep, _ := workloadByName("sweep-par2-observed")
	var stdout, stderr bytes.Buffer
	cfg := config{seed: 1, seconds: runSeconds, quick: true, outDir: dir, only: []workloadSpec{mixed, sweep}, stderr: &stderr}
	if code := runReport(cfg, &stdout); code != 0 {
		t.Fatalf("quick report exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	out := filepath.Join(dir, resultsName(1))
	set, err := loadResultSet(out)
	if err != nil {
		t.Fatal(err)
	}
	if set.Claim != nil || !set.Quick || set.Runs != 1 || len(set.Workloads) != 2 {
		t.Errorf("result set header: %+v", set)
	}
	for name, wr := range set.Workloads {
		for _, d := range endToEnd {
			s, ok := wr.EndToEnd[d.Name]
			if !ok || s.N != 1 || s.Unit != d.Unit {
				t.Errorf("%s: end-to-end %s missing or malformed: %+v", name, d.Name, s)
			}
			if d.ContractBound > 0 && s.Median <= 0 { // the contract's bounded metrics are never 0
				t.Errorf("%s: end-to-end %s = %v, must be positive", name, d.Name, s.Median)
			}
			if !strings.Contains(stdout.String(), d.Name) {
				t.Errorf("report does not print %s", d.Name)
			}
		}
		for _, d := range perLayer {
			if _, ok := wr.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer %s missing", name, d.Name)
			}
		}
		if wr.Failed != 0 || len(wr.Failures) != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d failures %v", name, wr.Attempted, wr.Failed, wr.Failures)
		}
		if len(wr.TopSpans) == 0 {
			t.Errorf("%s: no span attribution", name)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	ml, sl := set.Workloads[mixed.Name].PerLayer, set.Workloads[sweep.Name].PerLayer
	if ml["core.trim_s"] <= 0 || ml["trace.page_trims"] <= 0 || ml["core.windows"] <= 0 {
		t.Errorf("mixed-52T: trim/window ledger empty: %v %v %v", ml["core.trim_s"], ml["trace.page_trims"], ml["core.windows"])
	}
	if sl["httpd.scrapes"] < 2 || sl["runner.cell_s_phftl"] <= 0 || sl["obs.jsonl_bytes"] <= 0 || sl["runner.parallel_speedup"] <= 0 {
		t.Errorf("sweep: telemetry ledger empty: %v", sl)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "sweep-*.jsonl")); len(left) != 0 {
		t.Errorf("the sweep left its JSONL sink behind: %v", left)
	}

	// A set compared with itself: timed metrics "same"; exact ones too.
	stdout.Reset()
	if code := run([]string{"-compare", out, out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-compare exited %d: %s", code, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n")[1:] {
		if !strings.HasSuffix(line, "same") {
			t.Errorf("self-compare line not same: %s", line)
		}
	}

	// The driver contract: one JSON object as the last line, with exactly
	// the bounded end-to-end metrics when untraced.
	stdout.Reset()
	args := []string{"-quick", "-workload", "mixed-52T", "-seed", "2", "-trace", "0", "-outdir", dir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d: %s", args, code, stderr.String())
	}
	var line contractLine
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &line); err != nil {
		t.Fatalf("contract line: %v\n%s", err, stdout.String())
	}
	if !line.Correct || line.Attempted == 0 || line.Failed != 0 || len(line.Metrics) != len(contractEndToEnd()) {
		t.Errorf("contract line: %+v", line)
	}
	for _, d := range contractEndToEnd() {
		if v, ok := line.Metrics[d.Name]; !ok || v.Unit != d.Unit || v.Value <= 0 {
			t.Errorf("contract metric %s: %+v", d.Name, v)
		}
	}
}
