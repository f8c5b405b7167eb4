package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/sepbit"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/tworegion"
	"github.com/phftl/phftl/internal/workload"
)

// runOpts selects what one child process measures.
type runOpts struct {
	Seed   int64
	Scale  float64 // timed-section scale: -seconds / runSeconds
	Quick  bool    // quarter-size drives, 1 dw timed
	Traced bool
	OutDir string // where trace files and the sweep's JSONL sink go
}

// frozen reports whether the run has the frozen sizes, the ones the pins and
// the allocation ceilings were taken at.
func (o runOpts) frozen() bool { return !o.Quick && o.Scale == 1 }

// runResult is what one child reports to the parent: the end-to-end numbers
// of its timed section, the simulated statistics that must repeat exactly,
// the per-layer ledger (traced runs), and any failed correctness check.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	SetupS    float64  `json:"setup_s"`
	TimedS    float64  `json:"timed_s"`
	Pages     uint64   `json:"pages"` // user page writes in the timed section
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Failures  []string `json:"check_failures,omitempty"`

	E2E      map[string]float64 `json:"end_to_end,omitempty"`
	Sim      map[string]float64 `json:"sim,omitempty"`
	Layer    map[string]float64 `json:"per_layer,omitempty"`
	TopSpans []spanRow          `json:"top_spans,omitempty"`
}

// spanRow is one line of a traced run's attribution table.
type spanRow struct {
	Name    string  `json:"name"`
	Count   uint64  `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	SelfPct float64 `json:"self_pct_of_replay"`
}

// topSpans ranks span kinds by self time, as shares of the replay wall with
// the benchmark's own calibrations taken out. The root span's self time is
// what no wrapper saw: the FTL's own work (and the replay loop around it).
func topSpans(spans map[string]spanAgg) []spanRow {
	wallNS := spans["bench.replay"].TotalNS - spans["bench.calibrate"].TotalNS
	rows := make([]spanRow, 0, len(spans))
	for name, a := range spans {
		switch name {
		case "bench.calibrate":
			continue
		case "bench.replay":
			name = "ftl.self (replay - spans)"
			a.TotalNS = wallNS
		}
		rows = append(rows, spanRow{
			Name: name, Count: a.Count, TotalS: seconds(a.TotalNS), SelfS: seconds(a.SelfNS),
			SelfPct: float64(a.SelfNS) / float64(wallNS) * 100,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfS != rows[j].SelfS {
			return rows[i].SelfS > rows[j].SelfS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

func (r *runResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// profileFor returns the stock profile for a trace id at the given drive
// size. seed offsets only the workload generator: seed 1 is the stock,
// golden-pinned stream.
func profileFor(id string, pages int, seed int64) (workload.Profile, error) {
	p, ok := workload.ProfileByID(id)
	if !ok {
		return p, fmt.Errorf("bench: unknown trace %q", id)
	}
	p.ExportedPages = pages
	p.Seed += seed - 1
	return p, nil
}

// maxMarks sizes a source's mark buffer so a section never grows it: one
// mark per calibEvery is ~5 a second.
const maxMarks = 1024

// genSource adapts a workload generator to trace.RecordSource, ending the
// stream once the generator has emitted target page writes. It counts the
// records and page ops it hands out, runs the host-speed calibration (at the
// first record, every calibEvery after, and at the end of the stream), and
// times Next in traced runs.
type genSource struct {
	g        *workload.Generator
	pageSize uint64
	target   int
	tr       *tracer
	cal      *calibrator // nil: no calibration (probes, tests)

	records, pageWrites, pageReads, pageTrims uint64

	marks []mark
}

func (s *genSource) Next() (trace.Record, error) {
	done := s.g.PageWrites() >= s.target
	if s.cal != nil {
		// The clock is read every 64 records, not every record.
		n := len(s.marks)
		if n == 0 || done || (s.records&63 == 0 && time.Since(s.marks[n-1].after) >= calibEvery) {
			s.mark()
		}
	}
	if done {
		return trace.Record{}, io.EOF
	}
	var rec trace.Record
	if s.tr != nil && s.tr.on {
		s.tr.enter(spNext)
		rec = s.g.Next()
		s.tr.exit()
	} else {
		rec = s.g.Next()
	}
	s.records++
	if rec.Size > 0 {
		n := (rec.Offset+uint64(rec.Size)-1)/s.pageSize - rec.Offset/s.pageSize + 1
		switch rec.Op {
		case trace.OpWrite:
			s.pageWrites += n
		case trace.OpTrim:
			s.pageTrims += n
		default:
			s.pageReads += n
		}
	}
	return rec, nil
}

func (s *genSource) mark() {
	m := mark{before: time.Now(), cpuBefore: cpuSeconds()}
	traced := s.tr != nil && s.tr.on
	if traced {
		s.tr.enter(spCalibrate)
	}
	m.krunS = s.cal.run()
	if traced {
		s.tr.exit()
	}
	m.cpuAfter, m.after = cpuSeconds(), time.Now()
	s.marks = append(s.marks, m)
}

// arm starts a new section of the stream, ending at target generator page
// writes: counters and marks restart.
func (s *genSource) arm(target int) {
	s.records, s.pageWrites, s.pageReads, s.pageTrims = 0, 0, 0, 0
	s.target = target
	if s.marks == nil {
		s.marks = make([]mark, 0, maxMarks)
	}
	s.marks = s.marks[:0]
}

// newSource returns an armed source over a fresh generator for the profile.
func newSource(p workload.Profile, target int, tr *tracer, cal *calibrator) *genSource {
	s := &genSource{g: p.NewGenerator(), pageSize: uint64(p.PageSize), tr: tr, cal: cal}
	s.arm(target)
	return s
}

// schemeLayer names the package behind a scheme's separator.
func schemeLayer(s sim.Scheme) string {
	switch s {
	case sim.SchemePHFTL:
		return "core"
	case sim.SchemeSepBIT:
		return "sepbit"
	case sim.Scheme2R:
		return "tworegion"
	default:
		return "ftl.base"
	}
}

// buildCell constructs a scheme over the geometry. Untraced, it is exactly
// sim.Build. Traced, it assembles the same system by hand — as
// sim.Build/core.BuildWithDevice do — with the separator, the PHFTL flash
// reader, the event recorder and the device op hook replaced by forwarding
// wrappers that time every call into the layer behind them.
func buildCell(scheme sim.Scheme, geo nand.Geometry, traced bool) (*sim.Instance, *tracer, error) {
	if !traced {
		in, err := sim.Build(scheme, geo, nil)
		return in, nil, err
	}
	cfg := ftl.DefaultConfig(geo)
	var (
		sep    ftl.Separator
		policy ftl.VictimPolicy = ftl.CostBenefitPolicy{}
		p      *core.PHFTL
	)
	switch scheme {
	case sim.SchemePHFTL:
		opts := core.DefaultOptions()
		dataPages, metaPages, _ := core.MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
		cfg.MetaPagesPerSB = metaPages
		cfg.MaxGCClass = opts.GCStreams
		exported := int(float64(geo.Superblocks()*dataPages) / (1 + cfg.OPRatio))
		var err error
		if p, err = core.New(geo, exported, opts); err != nil {
			return nil, nil, err
		}
		policy = &ftl.AdjustedGreedyPolicy{Thresh: p, IsShortStream: p.IsShortStream}
		sep = p
	case sim.SchemeBase:
		sep = ftl.NewBaseSeparator()
	case sim.Scheme2R:
		sep = tworegion.New()
	case sim.SchemeSepBIT:
		sep = sepbit.New(int(float64(geo.Superblocks()*geo.PagesPerSuperblock()) / (1 + cfg.OPRatio)))
	default:
		return nil, nil, fmt.Errorf("bench: unknown scheme %q", scheme)
	}
	dev, err := nand.NewDevice(geo)
	if err != nil {
		return nil, nil, err
	}
	t := newTracer(schemeLayer(scheme))
	dev.SetOpHook(t.opHook)
	f, err := ftl.NewWithDevice(cfg, dev, wrapSeparator(sep, t), policy)
	if err != nil {
		return nil, nil, err
	}
	f.SetRecorder(t)
	if p != nil {
		p.Attach(&tracedReader{inner: f, t: t})
		p.SetRecorder(t, f.Clock)
	}
	return &sim.Instance{Scheme: scheme, FTL: f, PHFTL: p}, t, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// section measures what a timed section allocates and the process's
// resident-set high-water mark at its end; its times come from the marks.
type section struct {
	t0     time.Time
	alloc0 uint64

	wallS      float64 // calibrations included
	allocBytes uint64  // allocated inside the section
	totalAlloc uint64  // allocated by the process up to the section's end, the calibration table taken out
	peakRSSMiB float64 // likewise
}

func beginSection() *section {
	// Start every timed section from a collected heap so the first GC cycle
	// does not depend on what set-up left behind.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &section{alloc0: ms.TotalAlloc, t0: time.Now()}
}

func (s *section) end() {
	s.wallS = time.Since(s.t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes, s.totalAlloc = ms.TotalAlloc-s.alloc0, ms.TotalAlloc-calibEntries*4
	// Read the high-water mark now: the correctness checks that follow
	// allocate, and are not part of what is measured.
	s.peakRSSMiB = peakRSSMiB() - calibTableMiB
}

// e2e fills the end-to-end metrics every workload shares. pages is the user
// pages written inside the section, lifePages since the process started; t
// is the section's time with the calibrations taken out.
func (s *section) e2e(pages, lifePages uint64, t stretches, setupS, dataWAPct float64) map[string]float64 {
	return map[string]float64{
		"replay_pages_per_s":        float64(pages) / t.wallS,
		"cpu_s_per_mpage":           t.cpuS / float64(pages) * 1e6,
		"replay_pages_per_krun":     float64(pages) / t.kruns,
		"cpu_kruns_per_mpage":       t.cpuKruns / float64(pages) * 1e6,
		"alloc_bytes_per_page":      float64(s.allocBytes) / float64(pages),
		"proc_alloc_bytes_per_page": float64(s.totalAlloc) / float64(lifePages),
		"peak_rss_mb":               s.peakRSSMiB,
		"setup_s":                   setupS,
		"data_wa_pct":               dataWAPct,
		"data_waf_pct":              100 + dataWAPct,
		krunMetric:                  t.krunS() * 1e3,
	}
}

// krunMetric rides in the end-to-end map of every run but is reported as a
// per-layer (unbounded) metric, from the untraced runs it describes.
const krunMetric = "bench.krun_ms"

// checkAllocCeiling is the absolute gate on the timed section's allocation.
func checkAllocCeiling(res *runResult, w workloadSpec) {
	if got := res.E2E["alloc_bytes_per_page"]; got > w.AllocCeilingB {
		res.failf("alloc_bytes_per_page = %.4g B, ceiling %.4g B", got, w.AllocCeilingB)
	}
}

// runSingle measures one trace×scheme cell: build, warm up (set-up), then
// replay the timed section through sim.Instance.ReplayStream.
func runSingle(w workloadSpec, o runOpts) (*runResult, error) {
	pages, timedDW := w.Pages, w.TimedDW*o.Scale
	if o.Quick {
		pages, timedDW = pages/4, 1
	}
	p, err := profileFor(w.Trace, pages, o.Seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.Name, Traced: o.Traced}
	cal := newCalibrator(newCalibTable(), w.ComputeShare, 1)

	// Set-up: build, then warm-up replay.
	t0 := time.Now()
	in, tr, err := buildCell(w.Scheme, sim.GeometryForDrive(p.ExportedPages, p.PageSize), o.Traced)
	if err != nil {
		return nil, err
	}
	src := newSource(p, w.WarmDW*pages, tr, cal)
	if err := in.ReplayStream(src, p.PageSize); err != nil {
		return nil, fmt.Errorf("bench: %s warm-up: %w", w.Name, err)
	}
	res.SetupS = src.marks[0].before.Sub(t0).Seconds() + measureStretches(src.marks).wallS

	before, beforeDev := in.FTL.Stats(), in.FTL.Device().Stats()
	src.arm(w.WarmDW*pages + int(math.Round(timedDW*float64(pages))))
	sec := beginSection()
	if tr != nil {
		tr.start()
	}
	replayErr := in.ReplayStream(src, p.PageSize)
	if tr != nil {
		tr.stop()
	}
	sec.end()
	in.Finish()

	st := in.FTL.Stats()
	res.TimedS = sec.wallS
	res.Pages = st.UserPageWrites - before.UserPageWrites
	res.Attempted = src.pageWrites + src.pageReads + src.pageTrims
	if replayErr != nil {
		res.Failed = 1
		res.failf("replay: %v", replayErr)
	}
	if res.Pages == 0 {
		return nil, fmt.Errorf("bench: %s replayed no pages", w.Name)
	}
	timed := measureStretches(src.marks)
	res.E2E = sec.e2e(res.Pages, st.UserPageWrites, timed, res.SetupS, st.DataWA()*100)
	res.Sim = simStats(in, before, beforeDev)
	checkInstance(res, in)
	if o.frozen() && !o.Traced {
		checkAllocCeiling(res, w)
	}

	if tr != nil {
		res.Layer = singleLayerMetrics(res, tr, src)
		if in.PHFTL != nil {
			addClassifierMetrics(res.Layer, in.PHFTL)
		}
		spans, rare := mergeTracers([]*tracer{tr})
		checkSpans(res, spans)
		res.TopSpans = topSpans(spans)
		tf := traceFile{Workload: w.Name, Seed: o.Seed, Spans: spans, Rare: rare}
		if err := writeJSONFile(o.OutDir, "trace-"+w.Name+".json", tf); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// simStats collects the simulated statistics of a finished cell: counts over
// the timed section (deltas from the given snapshots; zero snapshots for a
// cold cell) and the cumulative ratios at end of run. They depend only on the
// generated inputs, so they must be identical between the traced and
// untraced runs of one seed, and between two runs of one binary.
func simStats(in *sim.Instance, before ftl.Stats, beforeDev nand.Stats) map[string]float64 {
	st, ds := in.FTL.Stats(), in.FTL.Device().Stats()
	m := map[string]float64{
		"data_wa_pct":         st.DataWA() * 100,
		"wa_pct":              st.WA() * 100,
		"user_page_writes":    float64(st.UserPageWrites - before.UserPageWrites),
		"host_page_reads":     float64(st.HostPageReads - before.HostPageReads),
		"trims":               float64(st.Trims - before.Trims),
		"ftl.gc_passes":       float64(st.GCVictims - before.GCVictims),
		"ftl.gc_pages_copied": float64(st.GCPageWrites - before.GCPageWrites),
		"nand.programs":       float64(ds.Programs - beforeDev.Programs),
		"nand.reads":          float64(ds.Reads - beforeDev.Reads),
		"nand.erases":         float64(ds.Erases - beforeDev.Erases),
		"data_pages_per_sb":   float64(in.FTL.DataPagesPerSB()),
	}
	if in.PHFTL != nil {
		c := in.PHFTL.Confusion()
		m["core.clf_f1"] = c.F1()
		m["core.clf_accuracy"] = c.Accuracy()
		m["core.threshold_final"] = in.PHFTL.Threshold()
	}
	return m
}

// checkInstance runs the per-cell correctness checks: FTL invariants,
// conservation between the FTL's and the device's counters, and
// read-your-writes on a strided LPN sample.
func checkInstance(res *runResult, in *sim.Instance) {
	f := in.FTL
	if err := f.CheckInvariants(); err != nil {
		res.failf("invariants: %v", err)
	}
	st, dev := f.Stats(), f.Device()
	ds := dev.Stats()
	if got, want := st.FlashPageWrites(), st.UserPageWrites+st.GCPageWrites+st.MetaPageWrites; got != want {
		res.failf("conservation: flash page writes %d != user+gc+meta %d", got, want)
	}
	if ds.Programs != st.FlashPageWrites() {
		res.failf("conservation: device programs %d != flash page writes %d", ds.Programs, st.FlashPageWrites())
	}
	if want := st.GCVictims * uint64(dev.Geometry().Dies); ds.Erases != want {
		res.failf("conservation: device erases %d != gc victims x dies %d", ds.Erases, want)
	}
	if in.PHFTL != nil {
		if err := in.PHFTL.Err(); err != nil {
			res.failf("phftl: %v", err)
		}
	}
	stride := f.ExportedPages() / 4096
	if stride < 1 {
		stride = 1
	}
	for lpn := 0; lpn < f.ExportedPages(); lpn += stride {
		ppn := f.MappedPPN(nand.LPN(lpn))
		if ppn == nand.InvalidPPN {
			continue
		}
		got, err := dev.LPNAt(ppn)
		if err != nil || got != nand.LPN(lpn) {
			res.failf("read-your-writes: lpn %d maps to ppn %d holding lpn %d (err %v)", lpn, ppn, got, err)
			break
		}
	}
}

// checkSpans verifies the span arithmetic of a traced run: no kind's self
// time is negative (children never exceed their parent in aggregate).
func checkSpans(res *runResult, spans map[string]spanAgg) {
	for _, name := range sortedKeys(spans) {
		if a := spans[name]; a.SelfNS < 0 || a.SelfNS > a.TotalNS {
			res.failf("span %s: self %d ns outside [0, total %d ns]", name, a.SelfNS, a.TotalNS)
		}
	}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// singleLayerMetrics turns one traced cell into the in-situ per-layer
// ledger, cross-checking the op hook's counts against the device's.
func singleLayerMetrics(res *runResult, tr *tracer, src *genSource) map[string]float64 {
	m := make(map[string]float64)
	addTracerMetrics(m, []*tracer{tr})
	m["workload.records"] = float64(src.records)
	m["trace.page_writes"] = float64(src.pageWrites)
	m["trace.page_reads"] = float64(src.pageReads)
	m["trace.page_trims"] = float64(src.pageTrims)
	for _, k := range []string{"nand.programs", "nand.reads", "nand.erases"} {
		if m[k] != res.Sim[k] {
			res.failf("conservation: op hook counted %s = %v, device counted %v", k, m[k], res.Sim[k])
		}
	}
	addGCCounts(m, res.Sim)
	return m
}

// addGCCounts copies the exact GC counts into the ledger and derives the
// wasted-work ratio: valid pages copied per data page of a collected victim.
func addGCCounts(m, sim map[string]float64) {
	passes, copied := sim["ftl.gc_passes"], sim["ftl.gc_pages_copied"]
	m["ftl.gc_passes"] = passes
	m["ftl.gc_pages_copied"] = copied
	if passes > 0 {
		m["ftl.gc_valid_ratio"] = copied / (passes * sim["data_pages_per_sb"])
	}
}

// addClassifierMetrics reports the exact classifier and cache statistics of
// a PHFTL cell (the sweep averages them over its PHFTL cells).
func addClassifierMetrics(m map[string]float64, p *core.PHFTL) {
	c := p.Confusion()
	m["core.clf_accuracy"] += c.Accuracy()
	m["core.clf_f1"] += c.F1()
	if ps := p.Stats(); ps.Predictions > 0 {
		m["core.predicted_short_pct"] += float64(ps.PredictedShort) / float64(ps.Predictions) * 100
	}
	m["core.threshold_final"] += p.Threshold()
	m["core.meta_cache_hit_pct"] += p.MetaStats().HitRate() * 100
}

// addTracerMetrics derives the span- and event-based ledger entries from one
// or more cells' tracers (summed over cells).
func addTracerMetrics(m map[string]float64, ts []*tracer) {
	var gcMS, winMS []float64
	for _, t := range ts {
		root := &t.agg[spReplay]
		m["workload.next_s"] += seconds(t.agg[spNext].TotalNS)
		m["ftl.self_s"] += seconds(root.SelfNS)
		m["ftl.write_stalls"] += float64(t.stalls)
		m["ftl.gc_pick_s"] += seconds(t.gcPickNS)
		m["ftl.gc_copy_s"] += seconds(t.gcCopyNS)
		m["ftl.gc_erase_s"] += seconds(t.gcEraseNS)
		m["nand.programs"] += float64(t.programs)
		m["nand.reads"] += float64(t.reads)
		m["nand.erases"] += float64(t.erases)
		gcMS = append(gcMS, t.rareDurationsMS(spGCPass)...)
		if t.layer != "core" {
			continue
		}
		m["core.place_user_s"] += seconds(t.agg[spPlaceUser].TotalNS)
		m["core.place_user_calls"] += float64(t.agg[spPlaceUser].Count)
		m["core.window_end_s"] += seconds(t.agg[spWindowEnd].TotalNS)
		m["core.windows"] += float64(t.agg[spWindowEnd].Count)
		m["core.threshold_pick_s"] += seconds(t.thrPickNS)
		m["core.retrain_s"] += seconds(t.retrainNS)
		m["core.retrain_examples"] += float64(t.retrainExamples)
		m["core.place_gc_s"] += seconds(t.agg[spPlaceGC].TotalNS)
		m["core.place_gc_calls"] += float64(t.agg[spPlaceGC].Count)
		m["core.meta_put_s"] += seconds(t.agg[spMetaPut].TotalNS)
		m["core.meta_seal_s"] += seconds(t.agg[spSeal].TotalNS)
		m["core.meta_seals"] += float64(t.agg[spSeal].Count)
		m["core.meta_drop_s"] += seconds(t.agg[spDrop].TotalNS)
		m["core.meta_flash_read_s"] += seconds(t.agg[spFlashRead].TotalNS)
		m["core.meta_flash_reads"] += float64(t.agg[spFlashRead].Count)
		m["core.read_note_s"] += seconds(t.agg[spReadNote].TotalNS)
		m["core.trim_s"] += seconds(t.agg[spTrim].TotalNS)
		winMS = append(winMS, t.rareDurationsMS(spWindowEnd)...)
	}
	m["ftl.gc_pass_ms_p50"] = percentile(gcMS, 50)
	m["ftl.gc_pass_ms_p99"] = percentile(gcMS, 99)
	m["core.window_end_ms_p50"] = percentile(winMS, 50)
	m["core.window_end_ms_max"] = percentile(winMS, 100)
}
