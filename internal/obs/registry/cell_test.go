package registry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/phftl/phftl/internal/obs"
)

func testSample(clock uint64) obs.Sample {
	return obs.Sample{
		Clock:         clock,
		IntervalWA:    0.2,
		CumWA:         0.3,
		FreeSB:        12,
		Threshold:     900,
		CacheHitRatio: 0.75,
		LatencyP50MS:  math.NaN(),
		LatencyP99MS:  math.NaN(),
		WearSkew:      1.1,
		WearCoV:       0.05,
	}
}

// TestCellPublishAndSnapshot pins the event/sample write side against the
// snapshot read side.
func TestCellPublishAndSnapshot(t *testing.T) {
	r := New()
	c := r.OpenCell("#52/PHFTL", CellMeta{Trace: "#52", Scheme: "PHFTL", TargetOps: 1000})
	c.SetState(StateRunning)
	c.Record(obs.Event{Kind: obs.KindGCStart, Clock: 5, F0: 0.4})
	c.Record(obs.Event{Kind: obs.KindGCEnd, Clock: 6})
	c.Record(obs.Event{Kind: obs.KindGCEnd, Clock: 9})
	c.PublishSample(testSample(500), FTLTotals{UserWrites: 500, GCWrites: 100, MetaWrites: 20})

	snaps := r.Snapshot().Cells
	if len(snaps) != 1 {
		t.Fatalf("Snapshot len = %d", len(snaps))
	}
	s := snaps[0]
	if s.Cell != "#52/PHFTL" || s.Trace != "#52" || s.Scheme != "PHFTL" {
		t.Fatalf("identity wrong: %+v", s)
	}
	if s.State != "running" || s.Ops != 500 || s.TargetOps != 1000 {
		t.Fatalf("state/ops wrong: %+v", s)
	}
	if s.UserWrites != 500 || s.GCWrites != 100 || s.MetaWrites != 20 {
		t.Fatalf("write totals wrong: %+v", s)
	}
	if s.GCPasses != 2 {
		t.Fatalf("GCPasses = %d, want 2", s.GCPasses)
	}
	for _, g := range []struct {
		name string
		got  *float64
		want float64
	}{{"interval_wa", s.IntervalWA, 0.2}, {"cum_wa", s.CumWA, 0.3}, {"threshold", s.Threshold, 900}, {"cache_hit", s.CacheHit, 0.75}} {
		if g.got == nil || *g.got != g.want {
			t.Fatalf("%s = %v, want %v", g.name, g.got, g.want)
		}
	}
	if s.Events["gc_start"] != 1 || s.Events["gc_end"] != 2 {
		t.Fatalf("event counts wrong: %v", s.Events)
	}

	tot := r.Totals()
	if tot.Ops != 500 || tot.TargetOps != 1000 || tot.Cells[StateRunning] != 1 || tot.Events != 3 {
		t.Fatalf("Totals wrong: %+v", tot)
	}

	c.SetState(StateDone)
	if got := r.Totals().Cells[StateDone]; got != 1 {
		t.Fatalf("done count = %d", got)
	}
}

// TestCellNaNGaugesSkipped pins the not-applicable propagation: baseline
// cells (no cache, NaN hit ratio) must not expose the gauge.
func TestCellNaNGaugesSkipped(t *testing.T) {
	r := New()
	c := r.OpenCell("#52/Base", CellMeta{Trace: "#52", Scheme: "Base"})
	s := testSample(10)
	s.CacheHitRatio = math.NaN()
	s.Threshold = 0
	c.PublishSample(s, FTLTotals{UserWrites: 10})
	snap := r.Snapshot().Cells[0]
	if snap.CacheHit != nil {
		t.Fatalf("CacheHit = %v, want omitted", *snap.CacheHit)
	}
	if snap.Threshold != nil {
		t.Fatalf("Threshold = %v, want omitted (never set)", *snap.Threshold)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "cache_hit_ratio{") || strings.Contains(b.String(), "phftl_cell_threshold{") {
		t.Fatalf("NaN cell gauges rendered:\n%s", b.String())
	}
}

// TestOpenCellIdempotent pins re-open semantics: the first caller's meta
// wins and both callers share one cell.
func TestOpenCellIdempotent(t *testing.T) {
	r := New()
	a := r.OpenCell("x", CellMeta{Trace: "t", Scheme: "s", TargetOps: 5})
	b := r.OpenCell("x", CellMeta{Trace: "other", Scheme: "other", TargetOps: 99})
	if a != b {
		t.Fatal("OpenCell returned distinct cells for one name")
	}
	if got := r.Snapshot().Cells; len(got) != 1 || got[0].Trace != "t" || got[0].TargetOps != 5 {
		t.Fatalf("meta overwritten: %+v", got)
	}
	if r.Cell("x") != a || r.Cell("missing") != nil {
		t.Fatal("Cell lookup wrong")
	}
}

// TestEventsSinceCursor pins the drain protocol: seq starts at 1, since is
// exclusive, a partial drain resumes without loss, and an overwritten gap
// resumes at the oldest survivor.
func TestEventsSinceCursor(t *testing.T) {
	r := New()
	c := r.OpenCell("x", CellMeta{})
	for i := 1; i <= 10; i++ {
		c.Record(obs.Event{Kind: obs.KindGCStart, Clock: uint64(i)})
	}
	// A limit-truncated drain must hand back the last *scanned* sequence as
	// the cursor, not the ring's newest: polling from the newest would skip
	// events 5..10 entirely.
	first, cursor := r.EventsSince(0, 0, 4)
	if cursor != 4 || len(first) != 4 || first[0].Seq != 1 || first[3].Seq != 4 {
		t.Fatalf("first drain: %d events, cursor %d (want 4 events, cursor 4)", len(first), cursor)
	}
	rest, cursor := r.EventsSince(cursor, 0, 0)
	if len(rest) != 6 || rest[0].Seq != 5 || rest[5].Seq != 10 || cursor != 10 {
		t.Fatalf("resumed drain wrong: %d events, cursor %d", len(rest), cursor)
	}
	if rest[0].Cell != "x" || rest[0].Ev.Clock != 5 {
		t.Fatalf("payload wrong: %+v", rest[0])
	}
	// Fully drained: cursor unchanged, no events.
	empty, cursor := r.EventsSince(cursor, 0, 0)
	if len(empty) != 0 || cursor != 10 {
		t.Fatalf("drained ring returned %d events, cursor %d", len(empty), cursor)
	}

	// Kind filter: only gc_end events; the cursor still covers the filtered
	// slots so the next poll does not rescan them.
	c.Record(obs.Event{Kind: obs.KindGCEnd, Clock: 11})
	ends, cursor := r.EventsSince(0, obs.KindGCEnd, 0)
	if len(ends) != 1 || ends[0].Ev.Kind != obs.KindGCEnd || cursor != 11 {
		t.Fatalf("kind filter wrong: %+v (cursor %d)", ends, cursor)
	}
}

// TestEventsSinceTruncatedNoLoss is the headline drain-protocol regression:
// repeatedly draining a full ring with a small limit, always resuming from
// the returned cursor, must deliver every sequence exactly once. The old
// EventsSince returned the ring's newest sequence even when limit truncated
// the scan, so every full page silently skipped the events behind it.
func TestEventsSinceTruncatedNoLoss(t *testing.T) {
	r := New()
	c := r.OpenCell("x", CellMeta{})
	const total = 107
	for i := 1; i <= total; i++ {
		c.Record(obs.Event{Kind: obs.KindGCStart, Clock: uint64(i)})
	}
	seen := make(map[uint64]int)
	var cursor uint64
	for polls := 0; polls < total+2; polls++ {
		evs, next := r.EventsSince(cursor, 0, 10)
		for _, se := range evs {
			seen[se.Seq]++
		}
		if next == cursor && len(evs) == 0 {
			break // drained
		}
		if next < cursor {
			t.Fatalf("cursor went backwards: %d -> %d", cursor, next)
		}
		cursor = next
	}
	if len(seen) != total {
		t.Fatalf("drained %d distinct sequences, want %d", len(seen), total)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times", seq, n)
		}
	}
}

// TestEventsSinceOverwrite pins the lossy-ring resume: when the gap between
// the cursor and the ring head was overwritten, the drain restarts at the
// oldest surviving event and EventsDropped counts the loss.
func TestEventsSinceOverwrite(t *testing.T) {
	r := New()
	r.ring.init(8) // tiny ring for the test
	c := r.OpenCell("x", CellMeta{})
	for i := 1; i <= 20; i++ {
		c.Record(obs.Event{Kind: obs.KindGCStart, Clock: uint64(i)})
	}
	got, newest := r.EventsSince(0, 0, 0)
	if newest != 20 {
		t.Fatalf("newest = %d", newest)
	}
	if len(got) != 8 || got[0].Seq != 13 || got[7].Seq != 20 {
		t.Fatalf("overwritten drain: %d events, first seq %v", len(got), got[0].Seq)
	}
	if r.EventsDropped() != 12 {
		t.Fatalf("EventsDropped = %d, want 12", r.EventsDropped())
	}
}

// TestHotKindThinning pins the 1/16 drain-ring sampling of meta-cache kinds:
// counters stay exact while the ring stores a fixed fraction.
func TestHotKindThinning(t *testing.T) {
	r := New()
	c := r.OpenCell("x", CellMeta{})
	const n = 16 * 10
	for i := 0; i < n; i++ {
		c.Record(obs.Event{Kind: obs.KindMetaCacheHit, Clock: uint64(i)})
	}
	if got := r.Snapshot().Cells[0].Events["meta_cache_hit"]; got != n {
		t.Fatalf("exact counter = %d, want %d", got, n)
	}
	stored, _ := r.EventsSince(0, 0, 0)
	if len(stored) != n/obs.HotSampleEvery {
		t.Fatalf("ring stored %d hot events, want %d", len(stored), n/obs.HotSampleEvery)
	}
}

// TestCellHotPathZeroAlloc pins the producer discipline: once the cell is
// open, Record and PublishSample must not heap-allocate — they run on the
// replay hot path of every instrumented cell.
func TestCellHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := New()
	c := r.OpenCell("x", CellMeta{Trace: "t", Scheme: "s"})
	ev := obs.Event{Kind: obs.KindGCStart, Clock: 1, F0: 0.5}
	s := testSample(1)
	tot := FTLTotals{UserWrites: 1, GCWrites: 2, MetaWrites: 3}
	if allocs := testing.AllocsPerRun(1000, func() {
		ev.Clock++
		c.Record(ev)
	}); allocs != 0 {
		t.Errorf("Cell.Record allocates %v times per call", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Clock++
		tot.UserWrites++
		c.PublishSample(s, tot)
	}); allocs != 0 {
		t.Errorf("Cell.PublishSample allocates %v times per call", allocs)
	}
}

// TestConcurrentProducersAndScrapers is the -race exercise: many cells
// recording and publishing while scrapers render the exposition, snapshot
// the cells and drain the ring concurrently.
func TestConcurrentProducersAndScrapers(t *testing.T) {
	r := New()
	const cells, events = 4, 2000
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.OpenCell(fmt.Sprintf("cell%d", i), CellMeta{Trace: "t", Scheme: "s", TargetOps: events})
			c.SetState(StateRunning)
			for j := 0; j < events; j++ {
				c.Record(obs.Event{Kind: obs.KindGCStart, Clock: uint64(j), F0: 0.5})
				if j%100 == 0 {
					c.PublishSample(testSample(uint64(j)), FTLTotals{UserWrites: uint64(j)})
				}
			}
			c.SetState(StateDone)
		}(i)
	}
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			var since uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				r.Snapshot()
				r.Totals()
				evs, newest := r.EventsSince(since, 0, 256)
				_ = evs
				since = newest
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	tot := r.Totals()
	if tot.Events != cells*events || tot.Cells[StateDone] != cells {
		t.Fatalf("final totals wrong: %+v", tot)
	}
}
