package main

import (
	"math"
	"testing"
	"time"

	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
)

// TestSpanArithmetic drives the tracer with a scripted clock through one
// plain write (with a nested flash read), one GC pass and one window end, and
// checks totals, self times, phases and parent links to the nanosecond.
func TestSpanArithmetic(t *testing.T) {
	var now int64
	tr := &tracer{layer: "core", clock: func() int64 { return now }}
	at := func(ns int64) { now = ns }

	tr.start() // root opens at 0

	// A user write 10..25 with a meta-page fetch 15..18 inside.
	at(10)
	tr.enter(spPlaceUser)
	at(15)
	tr.enter(spFlashRead)
	at(18)
	tr.exit()
	at(25)
	tr.exit()

	// A GC pass: the pick starts at the last mark (sb_close at 30), gc_start
	// arrives at 40, one GC placement 45..47, first erase at 60, gc_end at 66.
	at(30)
	tr.Record(obs.Event{Kind: obs.KindSBClose})
	at(40)
	tr.Record(obs.Event{Kind: obs.KindGCStart})
	at(45)
	tr.enter(spPlaceGC)
	at(47)
	tr.exit()
	at(60)
	tr.opHook(nand.OpErase, 0)
	at(61)
	tr.opHook(nand.OpErase, 0)
	at(66)
	tr.Record(obs.Event{Kind: obs.KindGCEnd})

	// A write that ends a window: entry 70, threshold at 80, retrain done at
	// 95 on 100 examples, return at 100.
	at(70)
	tr.enter(spPlaceUser)
	at(80)
	tr.Record(obs.Event{Kind: obs.KindThresholdUpdate})
	at(95)
	tr.Record(obs.Event{Kind: obs.KindWindowRetrain, A: 100})
	at(100)
	tr.exit()

	at(110)
	if got := tr.stop(); got != 110 {
		t.Fatalf("root duration %d, want 110", got)
	}

	want := map[spanKind][3]int64{ // count, total, self
		spReplay:    {1, 110, 110 - 15 - 36 - 30},
		spPlaceUser: {1, 15, 12},
		spFlashRead: {1, 3, 3},
		spGCPass:    {1, 36, 34},
		spPlaceGC:   {1, 2, 2},
		spWindowEnd: {1, 30, 30},
	}
	for k := spanKind(0); k < numSpanKinds; k++ {
		a, w := tr.agg[k], want[k]
		if int64(a.Count) != w[0] || a.TotalNS != w[1] || a.SelfNS != w[2] {
			t.Errorf("%s: count/total/self = %d/%d/%d, want %d/%d/%d", spanNames[k], a.Count, a.TotalNS, a.SelfNS, w[0], w[1], w[2])
		}
	}
	if tr.gcPickNS != 10 || tr.gcCopyNS != 20 || tr.gcEraseNS != 6 {
		t.Errorf("gc pick/copy/erase = %d/%d/%d, want 10/20/6", tr.gcPickNS, tr.gcCopyNS, tr.gcEraseNS)
	}
	if tr.thrPickNS != 10 || tr.retrainNS != 15 || tr.retrainExamples != 100 {
		t.Errorf("threshold/retrain/examples = %d/%d/%d, want 10/15/100", tr.thrPickNS, tr.retrainNS, tr.retrainExamples)
	}
	if tr.erases != 2 {
		t.Errorf("erases = %d, want 2", tr.erases)
	}

	// Kept spans close innermost first: gc pass, window end, then the root.
	if len(tr.rare) != 3 {
		t.Fatalf("%d kept spans, want 3: %+v", len(tr.rare), tr.rare)
	}
	gc, win, root := tr.rare[0], tr.rare[1], tr.rare[2]
	if gc.Kind != "ftl.gc_pass" || gc.StartNS != 30 || gc.DurNS != 36 || gc.Phases != [3]int64{10, 20, 6} {
		t.Errorf("gc span %+v", gc)
	}
	if win.Kind != "core.window_end" || win.DurNS != 30 || win.Phases != [3]int64{10, 15, 5} {
		t.Errorf("window span %+v", win)
	}
	if root.Kind != "bench.replay" || root.Parent != 0 || gc.Parent != root.ID || win.Parent != root.ID {
		t.Errorf("parent links: root %+v gc %+v win %+v", root, gc, win)
	}

	// The histogram files each duration under its bit length.
	if tr.agg[spFlashRead].Hist[2] != 1 { // 3 ns = 0b11
		t.Errorf("flash-read histogram %v", tr.agg[spFlashRead].Hist)
	}
}

// TestSummarizeMatchesPythonQuantiles pins the quartile method to
// statistics.quantiles(values, n=4): for 1..10 it gives 2.75, 5.5, 8.25.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	s := summarize("x", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Fatalf("summary %+v", s)
	}
	if got := s.spread(); got != 1 {
		t.Fatalf("spread %v, want 1", got)
	}
	five := summarize("x", []float64{1, 2, 3, 4, 5}) // Python: [1.5, 3.0, 4.5]
	if five.Q1 != 1.5 || five.Q3 != 4.5 {
		t.Fatalf("five-point quartiles %v %v", five.Q1, five.Q3)
	}
}

// TestVerdict covers the four verdicts and the exact-metric rule.
func TestVerdict(t *testing.T) {
	rate := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	cell, _ := workloadByName("phftl-small")
	tight := func(m float64) summary { return summarize("x", []float64{m * 0.99, m, m * 1.01}) }
	wide := func(m float64) summary { return summarize("x", []float64{m * 0.7, m, m * 1.3}) }
	cases := []struct {
		a, b summary
		want string
	}{
		{tight(100), tight(105), "same"},
		{tight(100), tight(80), "worse"},
		{tight(100), tight(125), "better"},
		{wide(100), tight(105), "unresolved"},
		{wide(100), tight(200), "better"}, // noisy, but every B run beats every A run
	}
	for i, c := range cases {
		if got := verdict(rate, cell, c.a, c.b); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
	wa := metricDef{Name: "wa", Better: "lower", Exact: true}
	if got := verdict(wa, cell, tight(20), tight(20)); got != "unresolved" {
		t.Errorf("exact metric varying within a set read %s, want unresolved", got)
	}
	same := summarize("x", []float64{20, 20, 20})
	if got := verdict(wa, cell, same, same); got != "same" {
		t.Errorf("identical exact metric read %s", got)
	}
	if got := verdict(wa, cell, same, summarize("x", []float64{21, 21, 21})); got != "worse" {
		t.Errorf("higher WA read %s, want worse", got)
	}

	// "5 % or 1 B": near zero the absolute allowance decides.
	alloc := metricDef{Name: "a", Better: "lower", Bound: 0.05, AbsBound: 1}
	if got := verdict(alloc, cell, tight(0.0001), tight(0.9)); got != "same" {
		t.Errorf("0.9 B over ~0 read %s, want same", got)
	}
	if got := verdict(alloc, cell, tight(0.0001), tight(16)); got != "worse" {
		t.Errorf("16 B over ~0 read %s, want worse", got)
	}
	if got := verdict(alloc, cell, tight(64), tight(80)); got != "worse" {
		t.Errorf("64 -> 80 B read %s, want worse", got)
	}
	// The sweep's own bound replaces the metric's.
	sweepRate := metricDef{Name: "r", Better: "higher", Bound: 0.05, SweepBound: 0.10}
	sweep, _ := workloadByName("sweep-par2-observed")
	if a, b := verdict(sweepRate, cell, tight(100), tight(92)), verdict(sweepRate, sweep, tight(100), tight(92)); a != "worse" || b != "same" {
		t.Errorf("-8 %% read %s on a cell and %s on the sweep, want worse and same", a, b)
	}
}

// TestStretches: calibrations are taken out of a section's time, each stretch
// is divided by the kernel-run length at its ends, and the first by its far
// end only.
func TestStretches(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	marks := []mark{
		{before: at(0), after: at(10), cpuAfter: 0.010, krunS: 0.001}, // cache-warm: ignored as a reference
		{before: at(110), after: at(130), cpuBefore: 0.100, cpuAfter: 0.120, krunS: 0.010},
		{before: at(330), after: at(350), cpuBefore: 0.300, cpuAfter: 0.320, krunS: 0.030},
	}
	n := measureStretches(marks)
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(n.wallS, 0.300) || !near(n.cpuS, 0.270) || !near(n.calibWallS, 0.050) {
		t.Errorf("wall/cpu/calib = %v/%v/%v, want 0.3/0.27/0.05", n.wallS, n.cpuS, n.calibWallS)
	}
	// 0.1 s at 10 ms a run, then 0.2 s at the mean of 10 and 30 ms.
	if !near(n.kruns, 10+10) || !near(n.cpuKruns, 9+9) || !near(n.krunS(), 0.015) {
		t.Errorf("kruns/cpuKruns/krunS = %v/%v/%v, want 20/18/0.015", n.kruns, n.cpuKruns, n.krunS())
	}
}
