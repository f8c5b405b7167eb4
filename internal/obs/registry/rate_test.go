package registry

import (
	"math"
	"testing"
	"time"

	"github.com/phftl/phftl/internal/obs"
)

// TestRateWindowBurstThenIdle pins the sliding-window behaviour both bug
// surfaces (runner progress line, /api/v1/status) now share: a burst followed
// by an idle queue must decay to a zero rate as the window slides past the
// burst, where the old lifetime average stayed pinned at a stale positive
// figure forever.
func TestRateWindowBurstThenIdle(t *testing.T) {
	w := NewRateWindow()
	t0 := time.Unix(1000, 0)
	if !math.IsNaN(w.Rate()) {
		t.Fatalf("empty window rate = %v, want NaN", w.Rate())
	}
	w.Observe(t0, 0)
	if !math.IsNaN(w.Rate()) {
		t.Fatalf("single-observation rate = %v, want NaN", w.Rate())
	}
	// Burst: 1000 ops/sec for 4 seconds.
	for i := 1; i <= 4; i++ {
		w.Observe(t0.Add(time.Duration(i)*time.Second), uint64(i)*1000)
	}
	if got := w.Rate(); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("burst rate = %v, want 1000", got)
	}
	// Idle: the counter stops. While the burst is still inside the window the
	// rate shrinks; once the window has slid fully past it, the rate is 0.
	w.Observe(t0.Add(20*time.Second), 4000)
	mid := w.Rate()
	if math.IsNaN(mid) || mid <= 0 || mid >= 1000 {
		t.Fatalf("mid-idle rate = %v, want in (0, 1000)", mid)
	}
	w.Observe(t0.Add(60*time.Second), 4000)
	w.Observe(t0.Add(75*time.Second), 4000)
	if got := w.Rate(); got != 0 {
		t.Fatalf("idle rate = %v, want 0 (lifetime average would report %v)",
			got, 4000.0/75.0)
	}
	// Stale observations (older time or lower total) are dropped.
	w.Observe(t0.Add(74*time.Second), 4000)
	w.Observe(t0.Add(76*time.Second), 3000)
	if got := w.Rate(); got != 0 {
		t.Fatalf("rate after stale observations = %v, want 0", got)
	}
}

// TestLiveOpsPerSecFallback pins the warm-up path: before the shared window
// has a slope, LiveOpsPerSec falls back to the lifetime average so the first
// status scrape still reports a figure.
func TestLiveOpsPerSecFallback(t *testing.T) {
	r := New()
	c := r.OpenCell("x", CellMeta{Trace: "t", Scheme: "s"})
	c.PublishSample(testSample(500), FTLTotals{UserWrites: 500})
	if got := r.LiveOpsPerSec(); got <= 0 {
		t.Fatalf("first LiveOpsPerSec = %v, want lifetime-average fallback > 0", got)
	}
}

// TestFleetWA pins the per-scheme WA aggregation behind /api/v1/fleet:
// interval WA fed per sample, final WA fed once per completed cell, schemes
// sorted, empty distributions flagged by Count 0 and omitted quantiles.
func TestFleetWA(t *testing.T) {
	r := New()
	phftl := r.OpenCell("#52/PHFTL", CellMeta{Trace: "#52", Scheme: "PHFTL"})
	base := r.OpenCell("#52/Base", CellMeta{Trace: "#52", Scheme: "Base"})
	base2 := r.OpenCell("#144/Base", CellMeta{Trace: "#144", Scheme: "Base"})

	for i, wa := range []float64{1.0, 1.2, 1.4, 2.9} {
		s := testSample(uint64(i))
		s.IntervalWA = wa
		base.PublishSample(s, FTLTotals{})
	}
	s := testSample(9)
	s.IntervalWA = 1.1
	base2.PublishSample(s, FTLTotals{})
	base.PublishFinalWA(1.31)
	base2.PublishFinalWA(1.05)

	all, schemes := r.FleetWA()
	if all.Count != 5 {
		t.Fatalf("fleet interval-WA count = %d, want 5", all.Count)
	}
	if len(schemes) != 2 || schemes[0].Scheme != "Base" || schemes[1].Scheme != "PHFTL" {
		t.Fatalf("schemes wrong: %+v", schemes)
	}
	b := schemes[0]
	if b.IntervalWA.Count != 5 || b.FinalWA.Count != 2 {
		t.Fatalf("Base counts wrong: %+v", b)
	}
	if *b.IntervalWA.Max != 2.9 || *b.FinalWA.Max != 1.31 {
		t.Fatalf("Base max wrong: interval %v final %v", *b.IntervalWA.Max, *b.FinalWA.Max)
	}
	if *b.FinalWA.P50 <= 0 || *b.FinalWA.P99 < *b.FinalWA.P50 {
		t.Fatalf("Base final quantiles wrong: %+v", b.FinalWA)
	}
	p := schemes[1]
	if p.FinalWA.Count != 0 || p.FinalWA.P50 != nil || p.FinalWA.Max != nil {
		t.Fatalf("PHFTL (never completed) final dist not empty: %+v", p.FinalWA)
	}
	_ = phftl
}

// TestStateCancelled pins the fifth lifecycle state end to end through the
// registry: string form, terminal stamping, state counts and the state gauge.
func TestStateCancelled(t *testing.T) {
	if StateCancelled.String() != "cancelled" || !StateCancelled.Terminal() {
		t.Fatal("StateCancelled identity wrong")
	}
	if StateQueued.Terminal() || StateRunning.Terminal() {
		t.Fatal("non-terminal states report terminal")
	}
	r := New()
	c := r.OpenCell("x", CellMeta{Trace: "t", Scheme: "s"})
	c.SetState(StateRunning)
	c.SetState(StateCancelled)
	if got := r.Totals().Cells[StateCancelled]; got != 1 {
		t.Fatalf("cancelled count = %d, want 1", got)
	}
	if s := r.Snapshot().Cells[0]; s.State != "cancelled" {
		t.Fatalf("snapshot state = %v", s.State)
	}
	// A cancelled cell's elapsed time is frozen at the cancel stamp.
	c2 := r.OpenCell("y", CellMeta{})
	c2.SetState(StateRunning)
	c2.SetState(StateCancelled)
	e1 := c2.elapsedSec(time.Now())
	e2 := c2.elapsedSec(time.Now().Add(time.Hour))
	if e1 != e2 {
		t.Fatalf("cancelled cell elapsed advanced: %v -> %v", e1, e2)
	}
}

// TestEventsSinceAheadCursor pins the degenerate resume: a cursor at or past
// the ring head returns no events and does not move the cursor backwards.
func TestEventsSinceAheadCursor(t *testing.T) {
	r := New()
	c := r.OpenCell("x", CellMeta{})
	c.Record(obs.Event{Kind: obs.KindGCStart, Clock: 1})
	evs, cursor := r.EventsSince(5, 0, 0)
	if len(evs) != 0 || cursor != 5 {
		t.Fatalf("ahead cursor: %d events, cursor %d (want 0, 5)", len(evs), cursor)
	}
}
