package runner

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

// smallProfiles returns shrunk copies of three synthetic traces so a full
// trace×scheme sweep stays test-sized.
func smallProfiles(t *testing.T) map[string]workload.Profile {
	t.Helper()
	out := make(map[string]workload.Profile)
	for _, id := range []string{"#52", "#58", "#144"} {
		p, ok := workload.ProfileByID(id)
		if !ok {
			t.Fatalf("missing profile %s", id)
		}
		p.ExportedPages = 4096
		out[p.ID] = p
	}
	return out
}

// simFunc is the phftl wa cell body: build the scheme, observe,
// replay one drive write, return result plus buffered telemetry.
func simFunc(profiles map[string]workload.Profile) Func {
	return func(c Cell) (Output, error) {
		p := profiles[c.Trace]
		geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
		in, err := sim.Build(c.Scheme, geo, nil)
		if err != nil {
			return Output{}, err
		}
		sim.Observe(in, sim.ObserveConfig{})
		res, err := sim.RunOn(in, p, 1)
		if err != nil {
			return Output{}, err
		}
		return Output{
			Result:  res,
			Events:  in.Obs.Rec.Events(),
			Samples: in.Obs.Sampler.Series(),
		}, nil
	}
}

// TestRunDeterminism is the engine's core guarantee: a serial run and a
// 4-way parallel run over 3 traces × 2 schemes must produce identical
// Result slices and byte-identical CSV and merged JSONL telemetry.
// (Schemes without wall-clock event fields are used so even the event
// payloads are bit-reproducible across runs.)
func TestRunDeterminism(t *testing.T) {
	profiles := smallProfiles(t)
	var cells []Cell
	for _, id := range []string{"#52", "#58", "#144"} {
		for _, s := range []sim.Scheme{sim.SchemeBase, sim.Scheme2R} {
			cells = append(cells, Cell{Trace: id, Scheme: s})
		}
	}
	sweep := func(parallel int) ([]Output, string, string) {
		var jsonl bytes.Buffer
		outs, err := Run(cells, simFunc(profiles), Options{Parallel: parallel, Telemetry: &jsonl})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var csv strings.Builder
		csv.WriteString(CSVHeader)
		for _, o := range outs {
			if err := WriteCSVRow(&csv, profiles[o.Cell.Trace].DriveClass, o.Result); err != nil {
				t.Fatal(err)
			}
		}
		return outs, jsonl.String(), csv.String()
	}
	serialOuts, serialJSONL, serialCSV := sweep(1)
	parOuts, parJSONL, parCSV := sweep(4)

	for i := range serialOuts {
		if !reflect.DeepEqual(serialOuts[i].Result, parOuts[i].Result) {
			t.Errorf("cell %d (%s): Result differs between serial and parallel",
				i, serialOuts[i].Cell.RunTag())
		}
		if !reflect.DeepEqual(serialOuts[i].Events, parOuts[i].Events) {
			t.Errorf("cell %d (%s): events differ", i, serialOuts[i].Cell.RunTag())
		}
	}
	if serialCSV != parCSV {
		t.Error("CSV bytes differ between serial and parallel runs")
	}
	if serialJSONL != parJSONL {
		t.Error("JSONL telemetry bytes differ between serial and parallel runs")
	}
	if len(serialJSONL) == 0 {
		t.Fatal("no telemetry emitted")
	}
	// Lines must be grouped per cell, in cell input order.
	wantTag := 0
	tags := make([]string, len(cells))
	for i, c := range cells {
		tags[i] = fmt.Sprintf("%q", c.RunTag())
	}
	for _, line := range strings.Split(strings.TrimSpace(serialJSONL), "\n") {
		for wantTag < len(tags)-1 && !strings.Contains(line, tags[wantTag]) {
			wantTag++
		}
		if !strings.Contains(line, tags[wantTag]) {
			t.Fatalf("telemetry line outside input-order grouping: %s", line)
		}
	}
}

// TestRunSharedSinkConcurrent drives many fast synthetic cells through one
// shared telemetry sink at parallelism 4. Run under -race (make check does)
// it verifies Run's caller is the sink's only writer; it also checks the
// emitted stream is complete and input-ordered.
func TestRunSharedSinkConcurrent(t *testing.T) {
	const n = 24
	var cells []Cell
	for i := 0; i < n; i++ {
		cells = append(cells, Cell{Trace: fmt.Sprintf("t%02d", i), Scheme: sim.SchemeBase})
	}
	fn := func(c Cell) (Output, error) {
		var evs []obs.Event
		for k := 0; k < 10; k++ {
			evs = append(evs, obs.Event{Kind: obs.KindSBOpen, Clock: uint64(k)})
		}
		return Output{
			Events:  evs,
			Samples: []obs.Sample{{Clock: 10, CumWA: 0.5}},
		}, nil
	}
	var sink bytes.Buffer
	outs, err := Run(cells, fn, Options{Parallel: 4, Telemetry: &sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != n {
		t.Fatalf("got %d outputs, want %d", len(outs), n)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != n*11 {
		t.Fatalf("got %d telemetry lines, want %d", len(lines), n*11)
	}
	for i, line := range lines {
		wantRun := fmt.Sprintf("%q", cells[i/11].RunTag())
		if !strings.Contains(line, wantRun) {
			t.Fatalf("line %d not tagged %s: %s", i, wantRun, line)
		}
	}
}

func TestRunPanicIsolation(t *testing.T) {
	cells := []Cell{
		{Trace: "a", Scheme: sim.SchemeBase},
		{Trace: "b", Scheme: sim.Scheme2R},
		{Trace: "c", Scheme: sim.SchemeBase},
	}
	fn := func(c Cell) (Output, error) {
		if c.Trace == "b" {
			panic("boom")
		}
		return Output{Result: sim.Result{Profile: c.Trace}}, nil
	}
	outs, err := Run(cells, fn, Options{Parallel: 3})
	if err == nil || !strings.Contains(err.Error(), "b/2R") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not reported with cell tag: %v", err)
	}
	if outs[1].Err == nil {
		t.Error("panicked cell has nil Err")
	}
	for _, i := range []int{0, 2} {
		if outs[i].Err != nil || outs[i].Result.Profile != cells[i].Trace {
			t.Errorf("cell %d corrupted by sibling panic: %+v", i, outs[i])
		}
	}
}

// TestRunLeavesNoGoroutines: Run returns only after every worker has
// exited, a panicking cell's included, so the process is back to its
// goroutine count from before the call.
func TestRunLeavesNoGoroutines(t *testing.T) {
	var cells []Cell
	for i := 0; i < 8; i++ {
		cells = append(cells, Cell{Trace: fmt.Sprintf("t%d", i), Scheme: sim.SchemeBase})
	}
	fn := func(c Cell) (Output, error) {
		if c.Trace == "t5" {
			panic("boom")
		}
		time.Sleep(time.Millisecond)
		return Output{}, nil
	}
	before := runtime.NumGoroutine()
	if _, err := Run(cells, fn, Options{Parallel: 4}); err == nil || !strings.Contains(err.Error(), "t5/Base") {
		t.Fatalf("err = %v, want the t5 panic", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// TestPoolRunsEverything pins the worker pool inside Run: every cell is
// claimed and run exactly once, and no more than Parallel cells run at a time.
func TestPoolRunsEverything(t *testing.T) {
	checkClaims(t, 3, 3)
}

// TestPoolDefaultSize: Parallel <= 0 sizes the pool at GOMAXPROCS.
func TestPoolDefaultSize(t *testing.T) {
	checkClaims(t, 0, runtime.GOMAXPROCS(0))
}

// checkClaims runs 60 short cells at the given Parallel and fails if any
// cell ran other than once or more than limit ran at once.
func checkClaims(t *testing.T, parallel, limit int) {
	t.Helper()
	const n = 60
	var cells []Cell
	for i := 0; i < n; i++ {
		cells = append(cells, Cell{Trace: fmt.Sprint(i), Scheme: sim.SchemeBase})
	}
	var mu sync.Mutex
	var runs [n]int
	active, peak := 0, 0
	fn := func(c Cell) (Output, error) {
		i, _ := strconv.Atoi(c.Trace)
		mu.Lock()
		runs[i]++
		active++
		peak = max(peak, active)
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		mu.Lock()
		active--
		mu.Unlock()
		return Output{}, nil
	}
	if _, err := Run(cells, fn, Options{Parallel: parallel}); err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if got := runs[i]; got != 1 {
			t.Fatalf("Parallel %d: cell %d ran %d times", parallel, i, got)
		}
	}
	if peak > limit {
		t.Fatalf("Parallel %d: %d cells ran at once, limit %d", parallel, peak, limit)
	}
}

func TestRunErrorAggregation(t *testing.T) {
	cells := []Cell{
		{Trace: "a", Scheme: sim.SchemeBase},
		{Trace: "b", Scheme: sim.SchemeBase},
	}
	sentinel := errors.New("bad geometry")
	fn := func(c Cell) (Output, error) {
		if c.Trace == "a" {
			return Output{}, sentinel
		}
		return Output{}, nil
	}
	outs, err := Run(cells, fn, Options{Parallel: 2})
	if !errors.Is(err, sentinel) {
		t.Fatalf("joined error does not wrap cell error: %v", err)
	}
	if !strings.Contains(err.Error(), "a/Base") {
		t.Errorf("error lacks trace/scheme tag: %v", err)
	}
	if outs[1].Err != nil {
		t.Errorf("healthy cell tainted: %v", outs[1].Err)
	}
}

func TestRunProgressLine(t *testing.T) {
	var progress bytes.Buffer
	cells := []Cell{{Trace: "a", Scheme: sim.SchemeBase}}
	fn := func(Cell) (Output, error) { return Output{}, nil }
	if _, err := Run(cells, fn, Options{Parallel: 1, Progress: &progress}); err != nil {
		t.Fatal(err)
	}
	if got := progress.String(); !strings.Contains(got, "1/1 cells done") {
		t.Errorf("progress = %q", got)
	}
}

func TestParseSchemes(t *testing.T) {
	got, err := ParseSchemes("PHFTL, Base")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != sim.SchemePHFTL || got[1] != sim.SchemeBase {
		t.Errorf("schemes = %v", got)
	}
	if all, err := ParseSchemes(""); err != nil || len(all) != len(sim.Schemes()) {
		t.Errorf("empty flag: %v, %v", all, err)
	}
	_, err = ParseSchemes("Base,Bogus")
	if err == nil || !strings.Contains(err.Error(), `unknown scheme "Bogus"`) ||
		!strings.Contains(err.Error(), "valid: Base, 2R, SepBIT, PHFTL") {
		t.Errorf("err = %v", err)
	}
}

func TestParseTraces(t *testing.T) {
	got, err := ParseTraces("#144, #52")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "#144" || got[1].ID != "#52" {
		t.Errorf("traces = %v", got)
	}
	if all, err := ParseTraces(""); err != nil || len(all) != len(workload.Profiles()) {
		t.Errorf("empty flag: %d profiles, %v", len(all), err)
	}
	_, err = ParseTraces("#52,#999")
	if err == nil || !strings.Contains(err.Error(), `unknown trace "#999"`) ||
		!strings.Contains(err.Error(), "valid:") {
		t.Errorf("err = %v", err)
	}
}

// TestWriteCSVRowPHFTLColumns pins the hit_rate column semantics: PHFTL
// rows carry the metadata-cache hit rate, baseline rows leave it empty
// (previously they inherited whatever PHFTL value was computed last).
func TestWriteCSVRowPHFTLColumns(t *testing.T) {
	var b strings.Builder
	base := sim.Result{Profile: "#52", Scheme: sim.SchemeBase}
	if err := WriteCSVRow(&b, "500GB", base); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(b.String()); !strings.HasSuffix(got, ",") {
		t.Errorf("baseline row should end with empty hit_rate: %q", got)
	}
	b.Reset()
	phftl := sim.Result{Profile: "#52", Scheme: sim.SchemePHFTL}
	phftl.MetaStats.CacheHits = 3
	phftl.MetaStats.CacheMisses = 1
	if err := WriteCSVRow(&b, "500GB", phftl); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(b.String()); !strings.HasSuffix(got, ",0.7500") {
		t.Errorf("PHFTL row hit_rate = %q, want suffix ,0.7500", got)
	}
}

// CellCSVName is the contract between phftl wa -telemetry-csv and the
// golden-curve harness (testdata/golden file names); a change here orphans
// every checked-in baseline.
func TestCellCSVName(t *testing.T) {
	cases := []struct {
		cell Cell
		want string
	}{
		{Cell{Trace: "#52", Scheme: sim.SchemeBase}, "52_Base.csv"},
		{Cell{Trace: "#144", Scheme: sim.SchemePHFTL}, "144_PHFTL.csv"},
		{Cell{Trace: "#326", Scheme: sim.Scheme2R}, "326_2R.csv"},
		{Cell{Trace: "a/b c", Scheme: sim.SchemeSepBIT}, "a_b_c_SepBIT.csv"},
	}
	for _, c := range cases {
		if got := CellCSVName(c.cell); got != c.want {
			t.Errorf("CellCSVName(%v) = %q, want %q", c.cell, got, c.want)
		}
	}
}

func TestRunTagOPSuffix(t *testing.T) {
	c := Cell{Trace: "#52", Scheme: sim.SchemeBase}
	if got := c.RunTag(); got != "#52/Base" {
		t.Errorf("RunTag = %q", got)
	}
	c.OP = 0.15
	if got := c.RunTag(); got != "#52/Base@op0.15" {
		t.Errorf("RunTag = %q", got)
	}
}

func TestParseTracesTrimTwins(t *testing.T) {
	ps, err := ParseTraces("#52T,#144T")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].ID != "#52T" || ps[1].ID != "#144T" {
		t.Fatalf("parsed %+v", ps)
	}
	if ps[0].TrimFrac <= 0 {
		t.Error("twin lost its trim knobs")
	}
	if _, err := ParseTraces("#nope"); err == nil {
		t.Error("unknown trace accepted")
	} else if !strings.Contains(err.Error(), "#52T") {
		t.Errorf("error %v does not list trim twins", err)
	}
}

// heatStrip returns the heat strip of one heatmap line: the runes between
// its two pipes.
func heatStrip(t *testing.T, line string) []rune {
	t.Helper()
	first, last := strings.IndexByte(line, '|'), strings.LastIndexByte(line, '|')
	if first < 0 || last <= first {
		t.Fatalf("line has no heat strip: %q", line)
	}
	return []rune(line[first+1 : last])
}

func TestHeatmapTotalsAndShape(t *testing.T) {
	dev := nand.MustNewDevice(nand.Geometry{PageSize: 512, OOBSize: 16, PagesPerBlock: 4, BlocksPerDie: 32, Dies: 3})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		if err := dev.EraseBlock(rng.Intn(3), rng.Intn(32)); err != nil {
			t.Fatal(err)
		}
	}
	out := WearHeatmap(dev, 16)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+3 {
		t.Fatalf("heatmap has %d lines, want header + 3 die rows:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "300 erases over 3 dies x 32 blocks") {
		t.Fatalf("header missing totals: %q", lines[0])
	}
	for die := 0; die < 3; die++ {
		total, _ := dev.DieEraseCount(die)
		row := lines[1+die]
		if !strings.Contains(row, fmt.Sprintf(" %d erases", total)) {
			t.Fatalf("die row %d does not carry its total %d: %q", die, total, row)
		}
		if cells := len(heatStrip(t, row)); cells != 16 {
			t.Fatalf("die row %d strip has %d cells, want 16: %q", die, cells, row)
		}
	}
}

func TestHeatmapClampsWidth(t *testing.T) {
	dev := nand.MustNewDevice(nand.Geometry{PageSize: 512, OOBSize: 16, PagesPerBlock: 4, BlocksPerDie: 4, Dies: 1})
	if err := dev.EraseBlock(0, 0); err != nil {
		t.Fatal(err)
	}
	out := WearHeatmap(dev, 64) // wider than BlocksPerDie → clamps to 4 cells
	if cells := len(heatStrip(t, out)); cells != 4 {
		t.Fatalf("strip has %d cells, want 4:\n%s", cells, out)
	}
}
