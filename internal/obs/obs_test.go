package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestTraceRecorderBasics(t *testing.T) {
	r := NewTraceRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindSBOpen, Clock: uint64(i), SB: int32(i)})
	}
	// 16 × 8 hits keep 8 events: the hit ring is exactly full.
	for i := 5; i < 5+8*HotSampleEvery; i++ {
		r.Record(Event{Kind: KindMetaCacheHit, Clock: uint64(i)})
	}
	if r.Total() != 5+8*HotSampleEvery || r.Dropped() != 0 {
		t.Fatalf("Total = %d, Dropped = %d", r.Total(), r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 5+8 {
		t.Fatalf("Events len = %d, want 13", len(evs))
	}
	for i, ev := range evs[:5] {
		if ev.Kind != KindSBOpen || ev.Clock != uint64(i) || ev.SB != int32(i) {
			t.Errorf("event %d = %+v, want sb_open clock/sb %d", i, ev, i)
		}
	}
	for i, ev := range evs[5:] {
		if want := uint64(5 + i*HotSampleEvery); ev.Kind != KindMetaCacheHit || ev.Clock != want {
			t.Errorf("event %d = %+v, want meta_cache_hit clock %d", 5+i, ev, want)
		}
	}
	if got := r.CountByKind(KindSBOpen); got != 5 {
		t.Errorf("CountByKind(SBOpen) = %d", got)
	}
	if got := r.CountByKind(KindGCEnd); got != 0 {
		t.Errorf("CountByKind(GCEnd) = %d", got)
	}
}

// A hot ring wraps at its capacity; rare kinds recorded beside it are not
// bounded by it.
func TestTraceRecorderWraparound(t *testing.T) {
	r := NewTraceRecorder(4)
	const kept = 11 // retained misses; the ring holds the newest 4
	const n = kept * HotSampleEvery
	for i := 0; i < n; i++ {
		r.Record(Event{Kind: KindMetaCacheMiss, Clock: uint64(i)})
		if i%HotSampleEvery == 1 {
			r.Record(Event{Kind: KindGCEnd, Clock: uint64(i)})
		}
	}
	if r.Total() != n+kept {
		t.Fatalf("Total = %d", r.Total())
	}
	if r.Dropped() != kept-4 {
		t.Fatalf("Dropped = %d, want %d", r.Dropped(), kept-4)
	}
	var misses []uint64
	gcEnds := 0
	for _, ev := range r.Events() {
		if ev.Kind == KindMetaCacheMiss {
			misses = append(misses, ev.Clock)
		} else {
			gcEnds++
		}
	}
	// The retained window is the newest 4 kept misses, oldest first.
	if len(misses) != 4 || gcEnds != kept {
		t.Fatalf("retained %d misses and %d gc_ends, want 4 and %d", len(misses), gcEnds, kept)
	}
	for i, c := range misses {
		if want := uint64((kept - 4 + i) * HotSampleEvery); c != want {
			t.Errorf("retained miss %d clock = %d, want %d", i, c, want)
		}
	}
	// Per-kind totals survive the overwrites.
	if got := r.CountByKind(KindMetaCacheMiss); got != n {
		t.Errorf("CountByKind = %d, want %d", got, n)
	}
}

// TestTraceRecorderMatchesModel checks the recorder against a plain slice
// model of its one retention rule: a seeded stream over every kind, with
// each meta-cache kind recorded often enough for its default ring to wrap
// and one out-of-range kind.
func TestTraceRecorderMatchesModel(t *testing.T) {
	const outOfRange = Kind(200)
	const n = 1 << 20
	rng := rand.New(rand.NewSource(36))
	r := NewTraceRecorder(0)

	var counts [numKinds]uint64
	var kept []Event // what the model retains, in record order
	var hotKept [numKinds]int
	for i := 0; i < n; i++ {
		var k Kind
		switch x := rng.Intn(100); {
		case x < 90: // the three hot kinds, 30 % each
			k = KindMetaCacheHit + Kind(x%3)
		case x < 99:
			k = Kind(1 + rng.Intn(numKinds-1))
		default:
			k = outOfRange
		}
		ev := Event{Kind: k, Clock: uint64(i), A: rng.Int63()}
		r.Record(ev)
		slot := int(k)
		if slot >= numKinds {
			slot = 0
		}
		counts[slot]++
		hot := k >= KindMetaCacheHit && k <= KindMetaCacheEvict
		if !hot || (counts[slot]-1)%HotSampleEvery == 0 {
			kept = append(kept, ev)
			if hot {
				hotKept[k]++
			}
		}
	}

	// Each hot kind keeps only its newest hotRingCapacity stored events.
	var want []Event
	var seen [numKinds]int
	var dropped, sampledOut uint64
	for k := KindMetaCacheHit; k <= KindMetaCacheEvict; k++ {
		if counts[k] <= HotSampleEvery*hotRingCapacity {
			t.Fatalf("kind %v recorded %d times, too few to wrap its ring", k, counts[k])
		}
		dropped += uint64(hotKept[k] - hotRingCapacity)
		sampledOut += counts[k] - uint64(hotKept[k])
	}
	for _, ev := range kept {
		if k := ev.Kind; k >= KindMetaCacheHit && k <= KindMetaCacheEvict {
			if seen[k]++; seen[k] <= hotKept[k]-hotRingCapacity {
				continue
			}
		}
		want = append(want, ev)
	}

	got := r.Events()
	if len(got) != len(want) {
		t.Fatalf("Events() holds %d events, model %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Events()[%d] = %+v, model %+v", i, got[i], want[i])
		}
	}
	if r.Total() != n || r.Dropped() != dropped || r.SampledOut() != sampledOut {
		t.Fatalf("Total/Dropped/SampledOut = %d/%d/%d, model %d/%d/%d",
			r.Total(), r.Dropped(), r.SampledOut(), n, dropped, sampledOut)
	}
	for k := Kind(0); int(k) < numKinds; k++ {
		if r.CountByKind(k) != counts[k] {
			t.Errorf("CountByKind(%v) = %d, model %d", k, r.CountByKind(k), counts[k])
		}
	}
	if counts[0] == 0 || r.CountByKind(outOfRange) != 0 {
		t.Errorf("out-of-range kind: slot 0 counted %d, CountByKind(%d) = %d", counts[0], outOfRange, r.CountByKind(outOfRange))
	}
}

func TestTraceRecorderConcurrent(t *testing.T) {
	// The timing model fans requests across goroutines; recording must be
	// safe under the race detector with a ring smaller than the event
	// count (forcing slot reuse).
	r := NewTraceRecorder(64)
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Record(Event{Kind: KindMetaCacheHit, Clock: uint64(g*perG + i)})
				_ = r.Total() // concurrent reader of the counters
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != goroutines*perG {
		t.Fatalf("Total = %d, want %d", r.Total(), goroutines*perG)
	}
	if got := r.CountByKind(KindMetaCacheHit); got != goroutines*perG {
		t.Fatalf("CountByKind = %d, want %d", got, goroutines*perG)
	}
	if len(r.Events()) != 64 {
		t.Fatalf("Events len = %d, want full ring", len(r.Events()))
	}
}

func TestTraceRecorderRecordZeroAlloc(t *testing.T) {
	// Bounded rings fill lazily via append; once a ring has wrapped, the
	// steady-state Record path must not allocate. Hot kinds (bounded by
	// default policy) are the ones on the replay fast path.
	r := NewTraceRecorder(1024)
	ev := Event{Kind: KindMetaCacheHit, Clock: 1, SB: 2, Stream: 3, A: 4}
	for i := 0; i < 64*1024; i++ { // fill past cap × sampling rate
		r.Record(ev)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Record(ev)
	}); allocs != 0 {
		t.Errorf("TraceRecorder.Record allocates %v times per call", allocs)
	}
}

// goldenJSONL is the exact JSONL stream for the events and samples in
// TestWriteJSONLGolden: one line per event/sample, merge-ordered by clock,
// with kind-specific field names in fixed order.
const goldenJSONL = `{"ev":"gc_start","run":"r1","clock":10,"sb":3,"stream":1,"gc_class":0,"valid":25,"free_sb":9,"valid_ratio":0.25}
{"ev":"gc_end","run":"r1","clock":10,"sb":3,"stream":1,"gc_class":0,"migrated":25,"free_sb":10,"valid_ratio":0.25}
{"ev":"erase","run":"r1","clock":10,"die":2,"block":3,"erase_count":7}
{"ev":"sample","run":"r1","clock":64,"interval_wa":0.125,"cum_wa":0.125,"free_sb":10,"threshold":500,"cache_hit":0.875,"queue_depth":0,"lat_p50_ms":0.25,"lat_p99_ms":1.5,"wear_skew":1.25,"wear_cov":0.125,"open_fill":[0.5,0]}
{"ev":"threshold_update","run":"r1","clock":100,"old":500,"new":620,"probe_accuracy":0.75,"direction":1,"step":5,"inflection_seed":0}
{"ev":"window_retrain","run":"r1","clock":100,"examples":256,"deployed":1,"loss":0.0625,"threshold":620}
{"ev":"meta_cache_miss","run":"r1","clock":120,"mppn":4096}
{"ev":"write_stall","run":"r1","clock":130,"depth":3,"source":0,"wait_ns":0}
`

func TestWriteJSONLGolden(t *testing.T) {
	events := []Event{
		{Kind: KindGCStart, Clock: 10, SB: 3, Stream: 1, GCClass: 0, A: 25, B: 9, F0: 0.25},
		{Kind: KindGCEnd, Clock: 10, SB: 3, Stream: 1, GCClass: 0, A: 25, B: 10, F0: 0.25},
		{Kind: KindErase, Clock: 10, SB: 3, A: 2, B: 3, C: 7},
		{Kind: KindThresholdUpdate, Clock: 100, SB: -1, Stream: -1, GCClass: -1, A: 1, B: 5, C: 0, F0: 500, F1: 620, F2: 0.75},
		{Kind: KindWindowRetrain, Clock: 100, SB: -1, Stream: -1, GCClass: -1, A: 256, B: 1, F0: 0.0625, F1: 620},
		{Kind: KindMetaCacheMiss, Clock: 120, SB: -1, Stream: -1, GCClass: -1, A: 4096},
		{Kind: KindWriteStall, Clock: 130, SB: -1, Stream: -1, GCClass: -1, A: 3, B: 0},
	}
	samples := []Sample{
		{Clock: 64, IntervalWA: 0.125, CumWA: 0.125, FreeSB: 10, Threshold: 500, CacheHitRatio: 0.875,
			LatencyP50MS: 0.25, LatencyP99MS: 1.5, WearSkew: 1.25, WearCoV: 0.125, OpenFill: []float64{0.5, 0}},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, "r1", events, samples); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenJSONL {
		t.Errorf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", got, goldenJSONL)
	}
	// Every line must also be valid JSON.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if _, ok := m["ev"]; !ok {
			t.Errorf("line %d missing ev field", i)
		}
	}
}

func TestWriteSamplesCSV(t *testing.T) {
	samples := []Sample{
		{Clock: 128, IntervalWA: 0.25, CumWA: 0.2, FreeSB: 12, Threshold: 800, CacheHitRatio: 0.99, QueueDepth: 2,
			LatencyP50MS: 0.5, LatencyP99MS: 2.125, WearSkew: 1.25, WearCoV: 0.125, OpenFill: []float64{1, 0.5, 0}},
	}
	var buf bytes.Buffer
	if err := WriteSamplesCSV(&buf, samples); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row", len(lines))
	}
	// The full column order is pinned: the golden baselines under
	// testdata/golden are compared byte for byte, so a moved, renamed or
	// inserted column must fail here before it fails golden-check.
	if lines[0] != "clock,interval_wa,cum_wa,free_sb,threshold,cache_hit,queue_depth,lat_p50_ms,lat_p99_ms,open_fill_mean,wear_skew,wear_cov" {
		t.Errorf("header = %q", lines[0])
	}
	// threshold carries 6 decimals: hill-climbing steps below 0.001 must
	// survive the round-trip into the golden-curve differ.
	if lines[1] != "128,0.250000,0.200000,12,800.000000,0.990000,2.00,0.500,2.125,0.5000,1.2500,0.1250" {
		t.Errorf("row = %q", lines[1])
	}
}

// A NaN CacheHitRatio marks schemes without a metadata cache, and NaN
// latency percentiles mark functional (untimed) replays: the JSONL sink
// must omit the fields (JSON cannot represent NaN, and 0 would read as a
// real measurement) and the CSV sink must leave the cells empty.
func TestSinksOmitNaNGauges(t *testing.T) {
	s := Sample{Clock: 64, IntervalWA: 0.5, CumWA: 0.5, FreeSB: 8,
		CacheHitRatio: math.NaN(), LatencyP50MS: math.NaN(), LatencyP99MS: math.NaN(),
		WearSkew: math.NaN(), WearCoV: math.NaN(),
		OpenFill: []float64{0.25}}
	line := string(AppendSampleJSON(nil, s, "r1"))
	for _, field := range []string{"cache_hit", "lat_p50_ms", "lat_p99_ms", "wear_skew", "wear_cov"} {
		if strings.Contains(line, field) {
			t.Errorf("JSONL line carries %s for NaN gauge: %s", field, line)
		}
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, line)
	}

	var buf bytes.Buffer
	if err := WriteSamplesCSV(&buf, []Sample{s}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := "64,0.500000,0.500000,8,0.000000,,0.00,,,0.2500,,"; lines[1] != want {
		t.Errorf("CSV row = %q, want %q", lines[1], want)
	}
}

func TestSamplerCadence(t *testing.T) {
	var clocks []uint64
	s := NewSampler(100, func(clock uint64) Sample { return Sample{Clock: clock} })
	for c := uint64(1); c <= 550; c++ {
		s.Tick(c)
	}
	for _, sm := range s.Series() {
		clocks = append(clocks, sm.Clock)
	}
	want := []uint64{100, 200, 300, 400, 500}
	if len(clocks) != len(want) {
		t.Fatalf("clocks = %v, want %v", clocks, want)
	}
	for i := range want {
		if clocks[i] != want[i] {
			t.Fatalf("clocks = %v, want %v", clocks, want)
		}
	}
	// A clock jump produces a single sample, not a backlog.
	s.Tick(1000)
	if n := len(s.Series()); n != 6 {
		t.Fatalf("after jump: %d samples, want 6", n)
	}
	// Final always records the end state, but not twice at one clock.
	s.Final(1000)
	if n := len(s.Series()); n != 6 {
		t.Fatalf("Final duplicated the last sample: %d", n)
	}
	s.Final(1042)
	if n := len(s.Series()); n != 7 || s.Series()[6].Clock != 1042 {
		t.Fatalf("Final did not record the end state: %+v", s.Series())
	}
}

func TestBuildReport(t *testing.T) {
	r := NewTraceRecorder(128)
	r.Record(Event{Kind: KindGCStart, Clock: 5, SB: 1, Stream: 0, A: 10, F0: 0.1})
	r.Record(Event{Kind: KindGCEnd, Clock: 5, SB: 1, Stream: 0, A: 10, F0: 0.1})
	r.Record(Event{Kind: KindGCEnd, Clock: 9, SB: 2, Stream: 1, A: 30, F0: 0.3})
	r.Record(Event{Kind: KindThresholdUpdate, Clock: 10, F0: 0, F1: 700, C: 1})
	r.Record(Event{Kind: KindThresholdUpdate, Clock: 20, F0: 700, F1: 650, A: -1, B: 4})
	r.Record(Event{Kind: KindWindowRetrain, Clock: 20, A: 100, B: 1, F0: 0.5})
	r.Record(Event{Kind: KindMetaCacheHit})
	r.Record(Event{Kind: KindMetaCacheHit})
	r.Record(Event{Kind: KindMetaCacheMiss})
	r.Record(Event{Kind: KindWriteStall, A: 4})
	samples := []Sample{
		{Clock: 10, IntervalWA: 0.5, CumWA: 0.5},
		{Clock: 20, IntervalWA: 0.1, CumWA: 0.3},
	}
	rep := BuildReport(r, samples)
	if rep.GCCount != 2 || rep.GCMigrated != 40 {
		t.Errorf("GC: %+v", rep)
	}
	if rep.GCByStream[0] != 1 || rep.GCByStream[1] != 1 {
		t.Errorf("GCByStream = %v", rep.GCByStream)
	}
	if rep.ThresholdUpdates != 2 || rep.ThresholdFirst != 700 || rep.ThresholdFinal != 650 {
		t.Errorf("threshold: %+v", rep)
	}
	if rep.CacheHits != 2 || rep.CacheMisses != 1 || rep.WriteStalls != 1 {
		t.Errorf("counters: %+v", rep)
	}
	if rep.Retrains != 1 || rep.Deploys != 1 {
		t.Errorf("retrains: %+v", rep)
	}
	if rep.FinalCumWA != 0.3 || rep.PeakIntWA != 0.5 {
		t.Errorf("WA: %+v", rep)
	}
	out := rep.String()
	for _, want := range []string{"gc collections       2", "threshold", "meta cache", "write stalls         1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}

// Rare kinds are lossless under the default policy: a burst far larger than
// any bounded ring is retained in full, with nothing dropped or thinned.
func TestDefaultPolicyRareKindsLossless(t *testing.T) {
	r := NewTraceRecorder(0)
	const n = 4*hotRingCapacity + 1000 // beyond any hot ring's bound
	for i := 0; i < n; i++ {
		r.Record(Event{Kind: KindGCEnd, Clock: uint64(i)})
	}
	if got := len(r.Events()); got != n {
		t.Fatalf("retained %d of %d lossless events", got, n)
	}
	if r.Dropped() != 0 || r.SampledOut() != 0 {
		t.Fatalf("Dropped = %d, SampledOut = %d, want 0/0", r.Dropped(), r.SampledOut())
	}
}

// Hot kinds are sampled 1-in-N under the default policy: retention thins,
// per-kind counters stay exact, and the thinned events are reported as
// sampled-out, not dropped.
func TestDefaultPolicyHotKindsSampled(t *testing.T) {
	r := NewTraceRecorder(0)
	const n = 1600
	for i := 0; i < n; i++ {
		r.Record(Event{Kind: KindMetaCacheHit, Clock: uint64(i)})
	}
	if got := r.CountByKind(KindMetaCacheHit); got != n {
		t.Fatalf("CountByKind = %d, want exact %d despite sampling", got, n)
	}
	const every = HotSampleEvery
	wantRetained := (n + int(every) - 1) / int(every) // first, then every Nth
	if got := len(r.Events()); got != wantRetained {
		t.Fatalf("retained %d events, want %d (1/%d of %d)", got, wantRetained, every, n)
	}
	if got := r.SampledOut(); got != uint64(n-wantRetained) {
		t.Fatalf("SampledOut = %d, want %d", got, n-wantRetained)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 (sampling is not loss)", r.Dropped())
	}
	// Retention keeps the first event, then every Nth.
	evs := r.Events()
	for i, ev := range evs {
		if want := uint64(i) * every; ev.Clock != want {
			t.Fatalf("retained[%d].Clock = %d, want %d", i, ev.Clock, want)
		}
	}
}

// Events from different kinds — landing in different rings — merge back into
// exact record order.
func TestEventsMergeRecordOrder(t *testing.T) {
	r := NewTraceRecorder(0)
	kinds := []Kind{KindGCStart, KindSBOpen, KindErase, KindSBClose, KindGCEnd, KindThresholdUpdate}
	const n = 200
	for i := 0; i < n; i++ {
		r.Record(Event{Kind: kinds[i%len(kinds)], Clock: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != n {
		t.Fatalf("retained %d of %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.Clock != uint64(i) || ev.Kind != kinds[i%len(kinds)] {
			t.Fatalf("event %d out of record order: %+v", i, ev)
		}
	}
}

// The report surfaces the new wear/sampling facts: the erase counter, the
// hot-kind sampling rate and the thinned-event count.
func TestReportErasesAndSampling(t *testing.T) {
	r := NewTraceRecorder(0)
	for i := 0; i < 4; i++ {
		r.Record(Event{Kind: KindErase, Clock: uint64(i), A: int64(i % 2), B: 1, C: 1})
	}
	for i := 0; i < 64; i++ {
		r.Record(Event{Kind: KindMetaCacheHit, Clock: uint64(i)})
	}
	rep := BuildReport(r, nil)
	if rep.Erases != 4 {
		t.Fatalf("Erases = %d, want 4", rep.Erases)
	}
	if rep.EventsSampledOut == 0 {
		t.Fatal("EventsSampledOut = 0, want > 0")
	}
	out := rep.String()
	for _, want := range []string{"block erases         4", "thinned by per-kind sampling", "events sampled 1/16"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}

// A run whose meta-cache rings wrapped prints the same trainer line as one
// whose rings did not: rare kinds never drop, so every training window is
// retained and the deployed count covers them all.
func TestReportTrainerLineWrappedRings(t *testing.T) {
	r := NewTraceRecorder(4)
	for i := 0; i < 8*HotSampleEvery; i++ {
		r.Record(Event{Kind: KindMetaCacheMiss, Clock: uint64(i)})
	}
	r.Record(Event{Kind: KindWindowRetrain, Clock: 200, A: 100, B: 1, F0: 0.5})
	r.Record(Event{Kind: KindWindowRetrain, Clock: 300, A: 100, B: 0, F0: 0.25})
	r.Record(Event{Kind: KindWindowRetrain, Clock: 400, A: 100, B: 1, F0: 0.125})
	rep := BuildReport(r, nil)
	if rep.EventsDropped == 0 {
		t.Fatal("rings did not wrap")
	}
	out := rep.String()
	const want = "  model trainer        3 training windows, 2 deployed, last loss 0.1250\n"
	if !strings.Contains(out, want) {
		t.Errorf("report text missing %q:\n%s", want, out)
	}
}
