package registry

import (
	"math"
	"strings"
	"testing"

	"github.com/phftl/phftl/internal/obs"
)

func expo(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCounterSetTotal pins the monotone-publish contract: a stale
// PublishSample (a lagging sampler) never winds a cell's totals backwards,
// so a served counter stays monotone.
func TestCounterSetTotal(t *testing.T) {
	r := New()
	c := r.OpenCell("x", CellMeta{Trace: "t", Scheme: "s"})
	c.PublishSample(testSample(100), FTLTotals{UserWrites: 100, GCWrites: 30, MetaWrites: 2})
	c.PublishSample(testSample(40), FTLTotals{UserWrites: 40, GCWrites: 10, MetaWrites: 1}) // stale: dropped
	s := r.Snapshot().Cells[0]
	if s.Ops != 100 || s.UserWrites != 100 || s.GCWrites != 30 || s.MetaWrites != 2 {
		t.Fatalf("stale sample moved totals backwards: %+v", s)
	}
	if !strings.Contains(expo(t, r), `phftl_cell_ops_total{cell="x"} 100`+"\n") {
		t.Fatal("served ops went backwards")
	}
	c.PublishSample(testSample(150), FTLTotals{UserWrites: 150, GCWrites: 30, MetaWrites: 2})
	if got := r.Totals().Ops; got != 150 {
		t.Fatalf("Ops = %d, want 150", got)
	}
}

// TestGaugeNaNDefault pins the no-observation convention: a fresh cell's
// gauges are NaN and skipped by the exposition (only its lifecycle state is
// served) until the first sample, and a Base cell's cache-hit gauge, NaN in
// every sample, never appears.
func TestGaugeNaNDefault(t *testing.T) {
	r := New()
	c := r.OpenCell("#52/Base", CellMeta{Trace: "#52", Scheme: "Base"})
	out := expo(t, r)
	if strings.Contains(out, "_wa{") || strings.Contains(out, "phftl_cell_free_superblocks") ||
		!strings.Contains(out, `phftl_cell_state{cell="#52/Base"} 0`) {
		t.Fatalf("fresh cell rendered wrong:\n%s", out)
	}
	s := testSample(10)
	s.CacheHitRatio = math.NaN()
	s.Threshold = 0
	s.CumWA = 1.5
	c.PublishSample(s, FTLTotals{UserWrites: 10})
	out = expo(t, r)
	if !strings.Contains(out, `phftl_cell_cum_wa{cell="#52/Base"} 1.5`+"\n") {
		t.Fatalf("published gauge missing:\n%s", out)
	}
	if strings.Contains(out, "phftl_cell_cache_hit_ratio") {
		t.Fatalf("Base cell served a cache-hit gauge:\n%s", out)
	}
}

// expoGolden is the exact exposition of one cell that has recorded events
// but never published a sample: every per-kind event count (zeros included,
// kinds sorted by name), the four totals at zero, the state gauge, and no
// NaN gauge or empty histogram.
const expoGolden = `# HELP phftl_cell_events_total Trace events recorded per cell and kind (exact, including ring-thinned events).
# TYPE phftl_cell_events_total counter
phftl_cell_events_total{cell="#52/PHFTL",kind="erase"} 1
phftl_cell_events_total{cell="#52/PHFTL",kind="gc_end"} 2
phftl_cell_events_total{cell="#52/PHFTL",kind="gc_start"} 0
phftl_cell_events_total{cell="#52/PHFTL",kind="meta_cache_evict"} 0
phftl_cell_events_total{cell="#52/PHFTL",kind="meta_cache_hit"} 0
phftl_cell_events_total{cell="#52/PHFTL",kind="meta_cache_miss"} 0
phftl_cell_events_total{cell="#52/PHFTL",kind="sb_close"} 0
phftl_cell_events_total{cell="#52/PHFTL",kind="sb_open"} 0
phftl_cell_events_total{cell="#52/PHFTL",kind="threshold_update"} 0
phftl_cell_events_total{cell="#52/PHFTL",kind="unknown"} 1
phftl_cell_events_total{cell="#52/PHFTL",kind="window_retrain"} 0
phftl_cell_events_total{cell="#52/PHFTL",kind="write_stall"} 0
# HELP phftl_cell_gc_writes_total GC page migrations issued by the cell's FTL.
# TYPE phftl_cell_gc_writes_total counter
phftl_cell_gc_writes_total{cell="#52/PHFTL"} 0
# HELP phftl_cell_meta_writes_total Metadata page programs issued by the cell's FTL (PHFTL only).
# TYPE phftl_cell_meta_writes_total counter
phftl_cell_meta_writes_total{cell="#52/PHFTL"} 0
# HELP phftl_cell_ops_total User page writes replayed into the cell (the FTL virtual clock).
# TYPE phftl_cell_ops_total counter
phftl_cell_ops_total{cell="#52/PHFTL"} 0
# HELP phftl_cell_state Cell lifecycle state: 0 queued, 1 running, 2 done, 3 failed, 4 cancelled.
# TYPE phftl_cell_state gauge
phftl_cell_state{cell="#52/PHFTL"} 1
# HELP phftl_cell_user_writes_total User page programs issued by the cell's FTL.
# TYPE phftl_cell_user_writes_total counter
phftl_cell_user_writes_total{cell="#52/PHFTL"} 0
`

// TestWritePrometheusGolden pins the renderer byte for byte on one cell.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	c := r.OpenCell("#52/PHFTL", CellMeta{Trace: "#52", Scheme: "PHFTL"})
	c.SetState(StateRunning)
	c.Record(obs.Event{Kind: obs.KindGCEnd})
	c.Record(obs.Event{Kind: obs.KindGCEnd})
	c.Record(obs.Event{Kind: obs.KindErase})
	c.Record(obs.Event{Kind: obs.Kind(obs.NumKinds + 3)}) // out of range: "unknown"
	if got := expo(t, r); got != expoGolden {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, expoGolden)
	}
}

// TestLabelEscaping pins the cell label: quote, backslash and newline
// escaped, invalid UTF-8 served as U+FFFD, and series ordered by the escaped
// label block rather than by the raw name ("a!" sorts before "a" because
// '!' < '"').
func TestLabelEscaping(t *testing.T) {
	r := New()
	r.OpenCell("a", CellMeta{})
	r.OpenCell("a\"b\\c\nd\xff", CellMeta{})
	r.OpenCell("a!", CellMeta{})
	want := `phftl_cell_ops_total{cell="a!"} 0
phftl_cell_ops_total{cell="a"} 0
phftl_cell_ops_total{cell="a\"b\\c\nd` + "�" + `"} 0
`
	if out := expo(t, r); !strings.Contains(out, want) {
		t.Fatalf("escaped, ordered series missing %q in:\n%s", want, out)
	}
}
