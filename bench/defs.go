package main

import (
	"github.com/phftl/phftl/internal/sim"
)

// runSeconds is BENCHMARK.json's run_seconds: the timed-section length the
// frozen timed_dw values below were sized for on the reference host. A
// -seconds value other than this scales every timed section proportionally
// (and disables the seed-1 pins, which hold only for the frozen sizes).
const runSeconds = 7

// workloadSpec is one benchmark workload. Single cells replay one
// trace×scheme pair after a warm-up; the sweep runs whole cells cold through
// the runner with telemetry on.
type workloadSpec struct {
	Name string
	Why  string

	// Single-cell parameters.
	Trace  string
	Scheme sim.Scheme
	Pages  int // exported pages of the scaled drive
	// WarmDW is the untimed drive writes before the clock starts. Single
	// cells fill the drive so GC is active and a model is deployed; the sweep
	// times whole cells cold.
	WarmDW int
	// TimedDW is the timed section in drive writes (single cells) or the
	// whole cold replay per cell (sweep).
	TimedDW float64

	// ComputeShare is the weight of the matrix-vector half in this workload's
	// kernel run (calib.go): how much of the workload's slowdown on a busy host
	// follows the core's speed rather than the memory system's. PHFTL cells
	// spend nine tenths of their time in training and GRU inference, Base in
	// victim scans and page-table walks. The values are the ones that minimise
	// the spread of pages per kernel run over eight runs of one seed; the
	// spread is flat within 0.15 of each.
	ComputeShare float64

	// AllocCeilingB fails a run whose timed section allocates more bytes per
	// page than this: the absolute gate on alloc_bytes_per_page. Each ceiling
	// is the largest figure seen over seeds 1-20 plus a tenth, or 1 B where
	// the section allocates nothing.
	AllocCeilingB float64

	// Sweep parameters (len(SweepTraces) > 0 marks the sweep workload).
	SweepTraces  []string
	SweepSchemes []sim.Scheme
	Parallel     int
	// SeedReps is how many seeds one -workload invocation measures the
	// workload at (0 means 1), reporting the median of each metric. PHFTL's
	// cold training volume at the sweep's 12 288 pages swings by half with the
	// generator seed (107 k-155 k trained examples over the four PHFTL cells,
	// seeds 1-10), and those cells are nine tenths of the sweep, so one seed
	// per run spreads 22-33 % across seeds: wider than any bound the contract
	// allows. Resampling fifteen single-seed runs into sets of ten, the median
	// of three still spreads past 25 % in one set of ten (measured: 15 % and
	// 24 % over seeds 1-10 and 11-20), the median of five in one of sixty, and
	// typically 7 %. An even count is no better than the odd one below it: the
	// single-seed figures fall into two clumps, and the mean of the middle two
	// lands between them.
	SeedReps int
}

func (w workloadSpec) isSweep() bool { return len(w.SweepTraces) > 0 }

// workloads is the frozen workload set. Profile, pages, scheme and warm-up
// never change; TimedDW was sized for ≥5 s timed sections on the 2-vCPU
// reference host.
var workloads = []workloadSpec{
	{
		Name:   "phftl-small",
		Why:    "#144 x PHFTL at the stock 32768 pages: the cell every golden and Fig. 5 sweep runs; window retraining is ~9/10 of the work, per-write work hides",
		Trace:  "#144",
		Scheme: sim.SchemePHFTL, Pages: 32768, WarmDW: 2, TimedDW: 4, ComputeShare: 0.85, AllocCeilingB: 74,
	},
	{
		Name:   "phftl-large",
		Why:    "#144 x PHFTL at 262144 pages: nearer the paper's window:drive ratio, so GRU step, metastore and GC share the time with training",
		Trace:  "#144",
		Scheme: sim.SchemePHFTL, Pages: 262144, WarmDW: 2, TimedDW: 2, ComputeShare: 0.85, AllocCeilingB: 88,
	},
	{
		Name:   "base-large",
		Why:    "#144 x Base at 1048576 pages: no core/ml at all; victim pick over 8k+ superblocks, nand invalidate/Split and GC copy do the work",
		Trace:  "#144",
		Scheme: sim.SchemeBase, Pages: 1048576, WarmDW: 2, TimedDW: 2, ComputeShare: 0.25, AllocCeilingB: 1,
	},
	{
		Name:   "mixed-52T",
		Why:    "#52T x PHFTL at 131072 pages: 30% reads, sequential runs and discard bursts, almost no GC copies; read/trim paths beside writes",
		Trace:  "#52T",
		Scheme: sim.SchemePHFTL, Pages: 131072, WarmDW: 2, TimedDW: 4, ComputeShare: 0.85, AllocCeilingB: 25,
	},
	{
		Name:          "sweep-par2-observed",
		Why:           "16 stock cells (4 traces x 4 schemes, 10 dw cold) through runner.Run at Parallel 2 with Observe, registry, JSONL sink and a 4 Hz HTTP scraper",
		Pages:         12288,
		TimedDW:       10,
		SweepTraces:   []string{"#326", "#679", "#223", "#228"},
		SweepSchemes:  []sim.Scheme{sim.SchemeBase, sim.Scheme2R, sim.SchemeSepBIT, sim.SchemePHFTL},
		Parallel:      2,
		SeedReps:      5,
		ComputeShare:  0.85, // the four PHFTL cells are nine tenths of the sweep
		AllocCeilingB: 219,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"

	// Bound is ISSUE 11's bound: the share of the baseline median by which an
	// end-to-end metric may worsen before -compare, which sets two result sets
	// of one seed side by side, calls it a regression. SweepBound, when set,
	// replaces it on the sweep; AbsBound is an absolute allowance in the
	// metric's unit, and the larger of the two applies ("15 % or 0.25 s").
	Bound, SweepBound, AbsBound float64
	// ContractBound is the metric's bound in BENCHMARK.json. The driver judges
	// medians over runs at ten different seeds, so it must cover the spread
	// between seeds as well as between runs. Zero keeps the metric out of the
	// driver's bounded set: it rides in BENCHMARK.json's unbounded list.
	ContractBound float64
	// Exact marks simulated statistics that must repeat to the last digit
	// between runs of one binary at one seed.
	Exact bool

	Layer string // per-layer only: the package the number belongs to
	Moves string // per-layer only: the end-to-end metric it should move, and where
}

// bound is the metric's -compare bound on a workload.
func (d metricDef) bound(w workloadSpec) float64 {
	if w.isSweep() && d.SweepBound > 0 {
		return d.SweepBound
	}
	return d.Bound
}

// endToEnd is the end-to-end metric set, reported for every workload from
// untraced runs: ISSUE 11's seven, by its names, definitions and bounds, and
// four more that exist because of what the driver contract requires of a
// bounded metric — never zero, and steady across runs at different seeds on a
// host whose speed is not.
//
//   - The wall and CPU figures spread 9-49 % between runs of one seed on this
//     host, so they carry no driver bound; their twins in kernel runs
//     (calib.go) do.
//   - alloc_bytes_per_page, the timed section's allocation, is ~1e-4 B on
//     base-large: runtime noise over two million pages. It is gated as an
//     absolute ceiling checked in every run (workloadSpec.AllocCeilingB); the
//     driver's relative bound sits on proc_alloc_bytes_per_page, which
//     includes set-up.
//   - data_wa_pct is a few hundredths of a percent on mixed-52T and moves
//     threefold between seeds, and failed_ops_pct is zero on a healthy run.
//     Both are exact: data_wa_pct is pinned per seed (expected.json), and a
//     run that misses its pin or fails an operation reports correct = false.
//     The driver's relative bound sits on data_waf_pct = 100 + data_wa_pct.
//
// The contract bounds are 2-3x the largest interquartile spread seen over two
// sets of ten seeds per workload (README, "Spread across seeds"); the timing
// ones sit at the contract's cap because PHFTL's training volume, and with it
// pages per kernel run, moves with the seed, and peak_rss_mb's is twice the
// issue's because the sweep's resident set depends on when the collector runs.
var endToEnd = []metricDef{
	{Name: "replay_pages_per_s", Unit: "pages/s", Better: "higher", Bound: 0.08, SweepBound: 0.10},
	{Name: "cpu_s_per_mpage", Unit: "s", Better: "lower", Bound: 0.08},
	{Name: "alloc_bytes_per_page", Unit: "B", Better: "lower", Bound: 0.05, AbsBound: 1},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10, ContractBound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.15, AbsBound: 0.25, ContractBound: 0.25},
	{Name: "data_wa_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "failed_ops_pct", Unit: "%", Better: "lower", Exact: true},

	{Name: "replay_pages_per_krun", Unit: "pages/krun", Better: "higher", Bound: 0.08, SweepBound: 0.10, ContractBound: 0.25},
	{Name: "cpu_kruns_per_mpage", Unit: "krun", Better: "lower", Bound: 0.08, ContractBound: 0.25},
	{Name: "proc_alloc_bytes_per_page", Unit: "B", Better: "lower", Bound: 0.05, ContractBound: 0.10},
	{Name: "data_waf_pct", Unit: "%", Better: "lower", Exact: true, ContractBound: 0.06},
}

// contractEndToEnd is BENCHMARK.json's end_to_end list: the bounded metrics.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.ContractBound > 0 {
			out = append(out, d)
		}
	}
	return out
}

// contractPerLayer is BENCHMARK.json's per_layer list, the metrics the driver
// records without a bound: the ledger, and the end-to-end metrics that carry
// no contract bound (measured, like all end-to-end metrics, untraced).
func contractPerLayer() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, d := range endToEnd {
		if d.ContractBound == 0 {
			out = append(out, d)
		}
	}
	return out
}

// perLayer is the per-layer ledger. In-situ entries come from the traced
// run; "(probe)" entries time a layer's public functions in isolation.
var perLayer = []metricDef{
	{Name: "workload.next_s", Unit: "s", Better: "lower", Layer: "workload", Moves: "replay_pages_per_s on base-large, mixed-52T"},
	{Name: "workload.records", Unit: "count", Better: "lower", Exact: true, Layer: "workload", Moves: "exact count"},
	{Name: "trace.page_writes", Unit: "count", Better: "higher", Exact: true, Layer: "trace", Moves: "exact count"},
	{Name: "trace.page_reads", Unit: "count", Better: "higher", Exact: true, Layer: "trace", Moves: "exact count"},
	{Name: "trace.page_trims", Unit: "count", Better: "higher", Exact: true, Layer: "trace", Moves: "exact count"},
	{Name: "trace.expand_ns_per_op", Unit: "ns", Better: "lower", Layer: "trace", Moves: "(probe) replay_pages_per_s on base-large, mixed-52T"},

	{Name: "ftl.self_s", Unit: "s", Better: "lower", Layer: "ftl", Moves: "replay_pages_per_s, cpu_s_per_mpage on base-large"},
	{Name: "ftl.gc_passes", Unit: "count", Better: "lower", Exact: true, Layer: "ftl", Moves: "data_wa_pct"},
	{Name: "ftl.gc_pages_copied", Unit: "count", Better: "lower", Exact: true, Layer: "ftl", Moves: "data_wa_pct"},
	{Name: "ftl.gc_valid_ratio", Unit: "ratio", Better: "lower", Exact: true, Layer: "ftl", Moves: "data_wa_pct"},
	{Name: "ftl.write_stalls", Unit: "count", Better: "lower", Exact: true, Layer: "ftl", Moves: "exact count"},
	{Name: "ftl.gc_pick_s", Unit: "s", Better: "lower", Layer: "ftl", Moves: "replay_pages_per_s on base-large"},
	{Name: "ftl.gc_copy_s", Unit: "s", Better: "lower", Layer: "ftl", Moves: "replay_pages_per_s on base-large, phftl-large"},
	{Name: "ftl.gc_erase_s", Unit: "s", Better: "lower", Layer: "ftl", Moves: "replay_pages_per_s on base-large"},
	{Name: "ftl.gc_pass_ms_p50", Unit: "ms", Better: "lower", Layer: "ftl", Moves: "replay_pages_per_s on base-large"},
	{Name: "ftl.gc_pass_ms_p99", Unit: "ms", Better: "lower", Layer: "ftl", Moves: "replay_pages_per_s on base-large"},

	{Name: "nand.programs", Unit: "count", Better: "lower", Exact: true, Layer: "nand", Moves: "exact count"},
	{Name: "nand.reads", Unit: "count", Better: "lower", Exact: true, Layer: "nand", Moves: "exact count"},
	{Name: "nand.erases", Unit: "count", Better: "lower", Exact: true, Layer: "nand", Moves: "exact count"},
	{Name: "nand.program_ns", Unit: "ns", Better: "lower", Layer: "nand", Moves: "(probe) replay_pages_per_s on base-large"},
	{Name: "nand.invalidate_ns", Unit: "ns", Better: "lower", Layer: "nand", Moves: "(probe) replay_pages_per_s on base-large"},

	{Name: "core.place_user_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on phftl-large, mixed-52T"},
	{Name: "core.place_user_calls", Unit: "count", Better: "lower", Exact: true, Layer: "core", Moves: "exact count"},
	{Name: "core.window_end_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s, cpu_s_per_mpage on phftl-small, phftl-large"},
	{Name: "core.windows", Unit: "count", Better: "lower", Exact: true, Layer: "core", Moves: "exact count"},
	{Name: "core.threshold_pick_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on phftl-small"},
	{Name: "core.retrain_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on phftl-small, phftl-large"},
	{Name: "core.retrain_examples", Unit: "count", Better: "lower", Exact: true, Layer: "core", Moves: "exact count"},
	{Name: "core.window_end_ms_p50", Unit: "ms", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on phftl-small"},
	{Name: "core.window_end_ms_max", Unit: "ms", Better: "lower", Layer: "core", Moves: "longest single-write stall"},
	{Name: "core.place_gc_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on phftl-large"},
	{Name: "core.place_gc_calls", Unit: "count", Better: "lower", Exact: true, Layer: "core", Moves: "exact count"},
	{Name: "core.meta_put_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on phftl-large"},
	{Name: "core.meta_seal_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on phftl-large, mixed-52T"},
	{Name: "core.meta_seals", Unit: "count", Better: "lower", Exact: true, Layer: "core", Moves: "exact count"},
	{Name: "core.meta_drop_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on phftl-large"},
	{Name: "core.meta_flash_read_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on phftl-large"},
	{Name: "core.meta_flash_reads", Unit: "count", Better: "lower", Exact: true, Layer: "core", Moves: "exact count"},
	{Name: "core.meta_cache_hit_pct", Unit: "%", Better: "higher", Exact: true, Layer: "core", Moves: "core.meta_flash_read_s"},
	{Name: "core.read_note_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on mixed-52T"},
	{Name: "core.trim_s", Unit: "s", Better: "lower", Layer: "core", Moves: "replay_pages_per_s on mixed-52T"},
	{Name: "core.clf_accuracy", Unit: "ratio", Better: "higher", Exact: true, Layer: "core", Moves: "explains data_wa_pct on PHFTL workloads"},
	{Name: "core.clf_f1", Unit: "ratio", Better: "higher", Exact: true, Layer: "core", Moves: "explains data_wa_pct on PHFTL workloads"},
	{Name: "core.predicted_short_pct", Unit: "%", Better: "higher", Exact: true, Layer: "core", Moves: "explains data_wa_pct on PHFTL workloads"},
	{Name: "core.threshold_final", Unit: "pages", Better: "lower", Exact: true, Layer: "core", Moves: "explains data_wa_pct on PHFTL workloads"},
	{Name: "core.encode_tail_ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "(probe) core.place_user_s on phftl-large"},
	{Name: "core.meta_get_ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "(probe) core.place_user_s on phftl-large"},
	{Name: "core.meta_put_ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "(probe) core.meta_put_s on phftl-large"},
	{Name: "core.meta_seal_us", Unit: "us", Better: "lower", Layer: "core", Moves: "(probe) core.meta_seal_s on phftl-large"},

	{Name: "ml.predict_step_ns", Unit: "ns", Better: "lower", Layer: "ml", Moves: "(probe) core.place_user_s on phftl-large"},
	{Name: "ml.train_example_us", Unit: "us", Better: "lower", Layer: "ml", Moves: "(probe) core.retrain_s on phftl-small"},

	{Name: "par.cell_workers2_speedup", Unit: "ratio", Better: "higher", Layer: "par", Moves: "(probe) none: the default is serial"},

	{Name: "obs.record_ns", Unit: "ns", Better: "lower", Layer: "obs", Moves: "(probe) replay_pages_per_s on sweep-par2-observed"},
	{Name: "obs.jsonl_event_ns", Unit: "ns", Better: "lower", Layer: "obs", Moves: "(probe) replay_pages_per_s on sweep-par2-observed"},
	{Name: "registry.record_ns", Unit: "ns", Better: "lower", Layer: "registry", Moves: "(probe) replay_pages_per_s on sweep-par2-observed"},
	{Name: "registry.publish_sample_ns", Unit: "ns", Better: "lower", Layer: "registry", Moves: "(probe) replay_pages_per_s on sweep-par2-observed"},
	{Name: "httpd.metrics_render_ms", Unit: "ms", Better: "lower", Layer: "httpd", Moves: "(probe) replay_pages_per_s on sweep-par2-observed"},
	{Name: "httpd.metrics_bytes", Unit: "B", Better: "lower", Layer: "httpd", Moves: "(probe) httpd.metrics_render_ms"},
	{Name: "obs.tax_pct", Unit: "%", Better: "lower", Layer: "obs", Moves: "(probe) replay_pages_per_s on sweep-par2-observed"},
	{Name: "obs.events_total", Unit: "count", Better: "lower", Exact: true, Layer: "obs", Moves: "exact count"},
	{Name: "obs.events_sampled_out", Unit: "count", Better: "lower", Exact: true, Layer: "obs", Moves: "exact count"},
	{Name: "obs.events_dropped", Unit: "count", Better: "lower", Exact: true, Layer: "obs", Moves: "must be 0"},
	{Name: "obs.jsonl_bytes", Unit: "B", Better: "lower", Exact: true, Layer: "obs", Moves: "exact count"},

	{Name: "runner.parallel_speedup", Unit: "ratio", Better: "higher", Layer: "runner", Moves: "replay_pages_per_s (not cpu_s_per_mpage) on sweep-par2-observed"},
	{Name: "runner.worker_idle_pct", Unit: "%", Better: "lower", Layer: "runner", Moves: "replay_pages_per_s on sweep-par2-observed"},
	{Name: "runner.cell_s_base", Unit: "s", Better: "lower", Layer: "runner", Moves: "replay_pages_per_s on sweep-par2-observed"},
	{Name: "runner.cell_s_2r", Unit: "s", Better: "lower", Layer: "runner", Moves: "replay_pages_per_s on sweep-par2-observed"},
	{Name: "runner.cell_s_sepbit", Unit: "s", Better: "lower", Layer: "runner", Moves: "replay_pages_per_s on sweep-par2-observed"},
	{Name: "runner.cell_s_phftl", Unit: "s", Better: "lower", Layer: "runner", Moves: "replay_pages_per_s on sweep-par2-observed"},

	{Name: "httpd.scrapes", Unit: "count", Better: "higher", Layer: "httpd", Moves: "none"},
	{Name: "httpd.scrape_ms_p50", Unit: "ms", Better: "lower", Layer: "httpd", Moves: "replay_pages_per_s on sweep-par2-observed"},
	{Name: "httpd.scrape_ms_p99", Unit: "ms", Better: "lower", Layer: "httpd", Moves: "replay_pages_per_s on sweep-par2-observed"},
	{Name: "httpd.scrape_failures", Unit: "count", Better: "lower", Layer: "httpd", Moves: "failed_ops_pct on sweep-par2-observed"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "bench", Moves: "none: the cost of the traced run itself"},
	{Name: krunMetric, Unit: "ms", Better: "lower", Layer: "bench", Moves: "none: the length of a calibration-kernel run, time-weighted over the untraced run; pages/krun = pages/s x this / 1000"},
}
