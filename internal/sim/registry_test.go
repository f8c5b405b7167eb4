package sim

import (
	"strings"
	"testing"

	"github.com/phftl/phftl/internal/obs/registry"
)

// TestObserveWithRegistryCell replays a small PHFTL cell with a live
// registry attached and checks the served figures against the authoritative
// end-of-run FTL stats: same totals, monotone event stream, and a rendered
// exposition that carries the cell.
func TestObserveWithRegistryCell(t *testing.T) {
	p := smallProfile()
	geo := GeometryForDrive(p.ExportedPages, p.PageSize)
	in, err := Build(SchemePHFTL, geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	cell := reg.OpenCell(p.ID+"/PHFTL", registry.CellMeta{Trace: p.ID, Scheme: "PHFTL"})
	cell.SetState(registry.StateRunning)
	o := Observe(in, ObserveConfig{Cell: cell})
	res, err := RunOn(in, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	o.Finish(in.FTL.Clock())
	cell.SetState(registry.StateDone)

	s := reg.Snapshot().Cells[0]
	if s.State != registry.StateDone.String() {
		t.Fatalf("state = %v", s.State)
	}
	// The final sample (Observation.Finish) publishes the closing totals, so
	// the registry must agree exactly with the result's FTL stats.
	if s.UserWrites != res.FTLStats.UserPageWrites ||
		s.GCWrites != res.FTLStats.GCPageWrites ||
		s.MetaWrites != res.FTLStats.MetaPageWrites {
		t.Fatalf("registry writes (%d/%d/%d) != FTL stats (%d/%d/%d)",
			s.UserWrites, s.GCWrites, s.MetaWrites,
			res.FTLStats.UserPageWrites, res.FTLStats.GCPageWrites, res.FTLStats.MetaPageWrites)
	}
	if s.Ops != in.FTL.Clock() {
		t.Fatalf("registry ops %d != clock %d", s.Ops, in.FTL.Clock())
	}
	if s.CumWA == nil || *s.CumWA != res.FTLStats.WA() {
		t.Fatalf("registry cum WA %v != stats %v", s.CumWA, res.FTLStats.WA())
	}
	if s.GCPasses == 0 || s.Events["gc_start"] != s.GCPasses {
		t.Fatalf("GC accounting wrong: passes %d, events %v", s.GCPasses, s.Events)
	}
	// The teed recorder must not starve the buffered observation: the JSONL
	// sinks and the live registry see the same stream.
	if len(o.Rec.Events()) == 0 || len(o.Sampler.Series()) == 0 {
		t.Fatal("buffered observation empty with registry attached")
	}

	events, newest := reg.EventsSince(0, 0, 0)
	if len(events) == 0 || newest == 0 {
		t.Fatal("drain ring empty after replay")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("ring seq gap: %d -> %d", events[i-1].Seq, events[i].Seq)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `phftl_cell_cum_wa{cell="`+p.ID+`/PHFTL"}`) {
		t.Fatalf("cell missing from exposition:\n%s", b.String())
	}
}

// TestObserveNilCellUnchanged pins the disabled path: without a registry
// cell, Observe must behave exactly as before the telemetry surface existed
// (same recorder, same series, no panics from typed-nil recorders).
func TestObserveNilCellUnchanged(t *testing.T) {
	p := smallProfile()
	run := func(cfg ObserveConfig) (float64, int, int) {
		geo := GeometryForDrive(p.ExportedPages, p.PageSize)
		in, err := Build(SchemePHFTL, geo, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := Observe(in, cfg)
		res, err := RunOn(in, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		o.Finish(in.FTL.Clock())
		return res.WA, len(o.Rec.Events()), len(o.Sampler.Series())
	}
	wa, nev, ns := run(ObserveConfig{})
	reg := registry.New()
	waR, nevR, nsR := run(ObserveConfig{Cell: reg.OpenCell("x", registry.CellMeta{})})
	if wa != waR || nev != nevR || ns != nsR {
		t.Fatalf("registry attachment changed the replay: (%v,%d,%d) vs (%v,%d,%d)",
			wa, nev, ns, waR, nevR, nsR)
	}
}
