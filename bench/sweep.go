package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/httpd"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/runner"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

// scrapeInterval is the HTTP scraper's cadence: 4 Hz, as watop polls.
const scrapeInterval = 250 * time.Millisecond

// sweepEnv is what the sweep's set-up builds: the cell list, the live
// registry, the HTTP server over it and the open JSONL sink.
type sweepEnv struct {
	cells []runner.Cell
	reg   *registry.Registry
	srv   *httpd.Server
	sink  *os.File
}

func (e *sweepEnv) close() {
	_ = e.srv.Close()
	_ = e.sink.Close()
	_ = os.Remove(e.sink.Name())
}

func setupSweep(w workloadSpec, target uint64, outDir string) (*sweepEnv, error) {
	e := &sweepEnv{}
	for _, id := range w.SweepTraces {
		for _, s := range w.SweepSchemes {
			e.cells = append(e.cells, runner.Cell{Trace: id, Scheme: s, TargetOps: target})
		}
	}
	e.reg = registry.New()
	// Register the fleet before the server comes up (runner.Run's own
	// registration is idempotent), so the first scrape already sees 16 cells.
	for _, c := range e.cells {
		e.reg.OpenCell(c.RunTag(), registry.CellMeta{Trace: c.Trace, Scheme: string(c.Scheme), TargetOps: c.TargetOps})
	}
	srv, err := httpd.Serve("127.0.0.1:0", e.reg)
	if err != nil {
		return nil, err
	}
	e.srv = srv
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		_ = srv.Close()
		return nil, err
	}
	e.sink, err = os.CreateTemp(outDir, "sweep-*.jsonl")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	return e, nil
}

// scraper polls the telemetry server the way a dashboard does: /metrics
// (validated as Prometheus exposition) and /api/v1/cells on one keep-alive
// connection, requiring the served op total never to go backwards.
type scraper struct {
	base   string
	client *http.Client
	cells  int

	lastOps   uint64
	scrapes   int
	failures  []string
	latencyMS []float64
	final     httpd.CellsJSON
}

func (s *scraper) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// scrape performs one poll and records its latency and any failure.
func (s *scraper) scrape() {
	s.scrapes++
	t0 := time.Now()
	err := func() error {
		expo, err := s.get("/metrics")
		if err != nil {
			return err
		}
		if err := httpd.CheckExposition(bytes.NewReader(expo)); err != nil {
			return fmt.Errorf("malformed exposition: %w", err)
		}
		body, err := s.get("/api/v1/cells")
		if err != nil {
			return err
		}
		var cells httpd.CellsJSON
		if err := json.Unmarshal(body, &cells); err != nil {
			return fmt.Errorf("bad cells JSON: %w", err)
		}
		if len(cells.Cells) != s.cells {
			return fmt.Errorf("%d cells served, want %d", len(cells.Cells), s.cells)
		}
		var ops uint64
		for _, c := range cells.Cells {
			ops += c.Ops
		}
		if ops < s.lastOps {
			return fmt.Errorf("served ops went backwards: %d -> %d", s.lastOps, ops)
		}
		s.lastOps = ops
		s.final = cells
		return nil
	}()
	s.latencyMS = append(s.latencyMS, time.Since(t0).Seconds()*1e3)
	if err != nil {
		s.failures = append(s.failures, fmt.Sprintf("scrape %d: %v", s.scrapes, err))
	}
}

// run scrapes until stop closes, then once more so the final state is seen.
func (s *scraper) run(stop <-chan struct{}) {
	tick := time.NewTicker(scrapeInterval)
	defer tick.Stop()
	for {
		s.scrape()
		select {
		case <-stop:
			s.scrape()
			return
		case <-tick.C:
		}
	}
}

// cellExtra is the bench's per-cell payload carried through runner.Output.
type cellExtra struct {
	wallS      float64 // build + replay + checks, calibrations excluded
	tr         *tracer
	rec        *obs.TraceRecorder
	src        *genSource
	sim        map[string]float64
	classifier map[string]float64 // nil for baselines
	failures   []string
}

// sweepCell is the sweep's runner.Func body: build the cell, observe it into
// the registry (and, traced, into the tracer), replay it cold, check it.
func sweepCell(env *sweepEnv, cals chan *calibrator, c runner.Cell, p workload.Profile, target int, traced bool) (runner.Output, error) {
	t0 := time.Now()
	in, tr, err := buildCell(c.Scheme, sim.GeometryForDrive(p.ExportedPages, p.PageSize), traced)
	if err != nil {
		return runner.Output{}, err
	}
	cell := env.reg.Cell(c.RunTag())
	sim.Observe(in, sim.ObserveConfig{Cell: cell})
	if tr != nil {
		// Observe installed its recorder on the FTL and the scheme; put the
		// tracer in front of the same fan-out.
		rec := obs.Tee(tr, obs.Tee(in.Obs.Rec, cell))
		in.FTL.SetRecorder(rec)
		if in.PHFTL != nil {
			in.PHFTL.SetRecorder(rec, in.FTL.Clock)
		}
		tr.start()
	}
	cal := <-cals
	defer func() { cals <- cal }() // also when the replay panics: other cells wait for it
	src := newSource(p, target, tr, cal)
	err = in.ReplayStream(src, p.PageSize)
	if tr != nil {
		tr.stop()
	}
	if err != nil {
		return runner.Output{}, err
	}
	in.Finish()
	x := &cellExtra{tr: tr, rec: in.Obs.Rec, src: src, sim: simStats(in, ftl.Stats{}, nand.Stats{})}
	var chk runResult
	checkInstance(&chk, in)
	x.failures = chk.Failures
	st := in.FTL.Stats()
	out := runner.Output{
		Result:  sim.Result{Profile: p.ID, Scheme: c.Scheme, WA: st.WA(), DataWA: st.DataWA(), FTLStats: st},
		Events:  in.Obs.Rec.Events(),
		Samples: in.Obs.Sampler.Series(),
		Dropped: in.Obs.Rec.Dropped(),
		Extra:   x,
	}
	if in.PHFTL != nil {
		x.classifier = make(map[string]float64)
		addClassifierMetrics(x.classifier, in.PHFTL)
	}
	x.wallS = time.Since(t0).Seconds()
	for _, m := range src.marks {
		x.wallS -= m.after.Sub(m.before).Seconds()
	}
	return out, nil
}

// meanKeys are the simulated statistics the sweep averages over the cells
// that report them; every other key is a count and is summed.
var meanKeys = map[string]bool{
	"data_wa_pct": true, "wa_pct": true, "data_pages_per_sb": true,
	"core.clf_f1": true, "core.clf_accuracy": true, "core.threshold_final": true,
}

// sweepSetupReps is how many times the sweep sets up in one run: its set-up
// is a few milliseconds, so setup_s is the median of that many.
const sweepSetupReps = 15

// runSweep measures the sweep workload: whole cells replayed cold through
// runner.Run at Parallel 2, each observed into the registry, with the JSONL
// sink on a temp file and the scraper polling the in-process server.
func runSweep(w workloadSpec, o runOpts) (*runResult, error) {
	pages, dw := w.Pages, w.TimedDW*o.Scale
	if o.Quick {
		pages, dw = pages/4, 1
	}
	target := int(math.Round(dw * float64(pages)))
	res := &runResult{Workload: w.Name, Traced: o.Traced}

	// Set-up: cell list, registry, server, sink.
	var (
		env    *sweepEnv
		setups []float64
	)
	for len(setups) < sweepSetupReps {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		if env, err = setupSweep(w, uint64(target), o.OutDir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer env.close()
	res.SetupS = median(setups)

	// The benchmark's own preparation, outside set-up and the timed section:
	// every cell's profile, and one calibrator per runner worker over a shared
	// table. A cell borrows a calibrator for its lifetime.
	profiles := make(map[string]workload.Profile)
	for _, id := range w.SweepTraces {
		p, err := profileFor(id, pages, o.Seed)
		if err != nil {
			return nil, err
		}
		profiles[id] = p
	}
	table := newCalibTable()
	cals := make(chan *calibrator, w.Parallel)
	for i := 0; i < w.Parallel; i++ {
		cals <- newCalibrator(table, w.ComputeShare, int64(i+1))
	}

	sc := &scraper{base: env.srv.URL(), client: &http.Client{Timeout: 5 * time.Second}, cells: len(env.cells)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc.run(stop)
	}()
	fn := func(c runner.Cell) (runner.Output, error) {
		return sweepCell(env, cals, c, profiles[c.Trace], target, o.Traced)
	}
	sec := beginSection()
	cpu0 := cpuSeconds()
	outs, runErr := runner.Run(env.cells, fn, runner.Options{Parallel: w.Parallel, Telemetry: env.sink, Registry: env.reg})
	sec.end()
	sweepCPU := cpuSeconds() - cpu0
	close(stop)
	wg.Wait()
	sc.client.CloseIdleConnections()
	res.TimedS = sec.wallS
	res.Attempted = uint64(len(env.cells) + sc.scrapes)
	res.Failed = uint64(len(sc.failures))
	res.Failures = sc.failures
	if runErr != nil {
		res.failf("sweep: %v", runErr)
	}

	var (
		cells                 stretches // summed over the cells
		cellWall, victimPages float64
		lines                 int
		schemeWall            = make(map[sim.Scheme]float64)
		tracers               []*tracer
		stats                 = make(map[string]float64)
		reporting             = make(map[string]float64) // cells contributing to each key
		layer                 = make(map[string]float64)
	)
	for _, out := range outs {
		if out.Err != nil {
			res.Failed++
			continue
		}
		x := out.Extra.(*cellExtra)
		for _, f := range x.failures {
			res.failf("%s: %s", out.Cell.RunTag(), f)
		}
		t := measureStretches(x.src.marks)
		cells.wallS += t.wallS
		cells.kruns += t.kruns
		cells.calibWallS += t.calibWallS
		cellWall += x.wallS
		schemeWall[out.Cell.Scheme] += x.wallS
		lines += len(out.Events) + len(out.Samples)
		victimPages += x.sim["ftl.gc_passes"] * x.sim["data_pages_per_sb"]
		for k, v := range x.sim {
			stats[k] += v
			reporting[k]++
		}
		for k, v := range x.classifier {
			layer[k] += v / float64(len(w.SweepTraces)) // one PHFTL cell per trace
		}
		layer["workload.records"] += float64(x.src.records)
		layer["trace.page_writes"] += float64(x.src.pageWrites)
		layer["trace.page_reads"] += float64(x.src.pageReads)
		layer["trace.page_trims"] += float64(x.src.pageTrims)
		layer["obs.events_total"] += float64(x.rec.Total())
		layer["obs.events_sampled_out"] += float64(x.rec.SampledOut())
		layer["obs.events_dropped"] += float64(out.Dropped)
		if x.tr != nil {
			tracers = append(tracers, x.tr)
		}
	}
	for k := range stats {
		if meanKeys[k] {
			stats[k] /= reporting[k]
		}
	}
	res.Pages = uint64(stats["user_page_writes"])
	if res.Pages == 0 {
		return nil, fmt.Errorf("bench: %s replayed no pages: %v", w.Name, runErr)
	}
	for _, c := range sc.final.Cells {
		if c.State != "done" {
			res.failf("cell %s ended %q, want done", c.Cell, c.State)
		}
	}
	if n := layer["obs.events_dropped"]; n > 0 {
		res.failf("event rings dropped %v events", n)
	}
	if err := env.sink.Sync(); err != nil {
		return nil, err
	}
	sinkBytes, sinkLines, err := countLines(env.sink.Name())
	if err != nil {
		return nil, err
	}
	if sinkLines != lines {
		res.failf("JSONL sink holds %d lines, cells retained %d events+samples", sinkLines, lines)
	}
	// Every cell calibrates in situ, on its own worker, so the sweep's kernel
	// run is the time-weighted one over all cells' stretches. The kernel's own
	// time is taken out of the makespan first: its wall time spread over the
	// workers, and — the kernel being compute-bound — the same amount of CPU.
	timed := stretches{
		wallS: sec.wallS - cells.calibWallS/float64(w.Parallel),
		cpuS:  sweepCPU - cells.calibWallS,
	}
	timed.kruns, timed.cpuKruns = timed.wallS/cells.krunS(), timed.cpuS/cells.krunS()
	res.E2E = sec.e2e(res.Pages, res.Pages, timed, res.SetupS, stats["data_wa_pct"])
	res.Sim = stats
	if !o.Traced {
		if o.frozen() {
			checkAllocCeiling(res, w)
		}
		return res, nil
	}

	addTracerMetrics(layer, tracers)
	layer["ftl.gc_passes"] = stats["ftl.gc_passes"]
	layer["ftl.gc_pages_copied"] = stats["ftl.gc_pages_copied"]
	if victimPages > 0 {
		layer["ftl.gc_valid_ratio"] = stats["ftl.gc_pages_copied"] / victimPages
	}
	layer["obs.jsonl_bytes"] = float64(sinkBytes)
	layer["runner.parallel_speedup"] = cellWall / timed.wallS
	layer["runner.worker_idle_pct"] = (1 - cellWall/(float64(w.Parallel)*timed.wallS)) * 100
	layer["runner.cell_s_base"] = schemeWall[sim.SchemeBase]
	layer["runner.cell_s_2r"] = schemeWall[sim.Scheme2R]
	layer["runner.cell_s_sepbit"] = schemeWall[sim.SchemeSepBIT]
	layer["runner.cell_s_phftl"] = schemeWall[sim.SchemePHFTL]
	layer["httpd.scrapes"] = float64(sc.scrapes)
	layer["httpd.scrape_ms_p50"] = percentile(sc.latencyMS, 50)
	layer["httpd.scrape_ms_p99"] = percentile(sc.latencyMS, 99)
	layer["httpd.scrape_failures"] = float64(len(sc.failures))
	res.Layer = layer

	spans, rare := mergeTracers(tracers)
	checkSpans(res, spans)
	res.TopSpans = topSpans(spans)
	tf := traceFile{Workload: w.Name, Seed: o.Seed, Spans: spans, Rare: rare}
	if err := writeJSONFile(o.OutDir, "trace-"+w.Name+".json", tf); err != nil {
		return nil, err
	}
	return res, nil
}

// countLines returns a file's size and newline count.
func countLines(path string) (size int64, lines int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	return int64(len(data)), bytes.Count(data, []byte{'\n'}), nil
}

// writeJSONFile writes v as indented JSON to dir/name.
func writeJSONFile(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
