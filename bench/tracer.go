package main

import (
	"math/bits"
	"time"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
)

// spanKind names one layer boundary the traced run times. Every kind is
// aggregated (count/total/self/histogram); kinds in rareKinds are also kept
// one record per occurrence, with the id of the enclosing kept span.
type spanKind uint8

const (
	spReplay    spanKind = iota // the timed section (root)
	spNext                      // RecordSource.Next
	spPlaceUser                 // Separator.PlaceUserWrite with no window event inside
	spWindowEnd                 // Separator.PlaceUserWrite that ended a training window
	spPlaceGC                   // Separator.PlaceGCWrite
	spMetaPut                   // Separator.OnPagePlaced
	spSeal                      // Separator.MetaPages
	spDrop                      // Separator.OnSuperblockErased
	spReadNote                  // Separator.OnUserRead
	spTrim                      // TrimAware.OnTrim
	spFlashRead                 // FlashReader.ReadMetaPage
	spGCPass                    // last mark before gc_start -> gc_end
	spCalibrate                 // the benchmark's own host-speed calibration
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"replay", "next", "place_user", "window_end", "place_gc", "meta_put",
	"meta_seal", "meta_drop", "read_note", "trim", "meta_flash_read", "gc_pass",
	"calibrate",
}

var rareKinds = [numSpanKinds]bool{spReplay: true, spWindowEnd: true, spSeal: true, spGCPass: true}

// histBuckets is the fixed histogram width: bucket i counts durations whose
// nanosecond value has bit length i (i.e. [2^(i-1), 2^i) ns), the last
// bucket absorbing everything longer (>= ~9 minutes).
const histBuckets = 40

// spanAgg is the per-kind aggregate. SelfNS is TotalNS minus the part of
// each span covered by its child spans.
type spanAgg struct {
	Count   uint64              `json:"count"`
	TotalNS int64               `json:"total_ns"`
	SelfNS  int64               `json:"self_ns"`
	Hist    [histBuckets]uint64 `json:"hist_log2_ns"`
}

func (a *spanAgg) add(dur, self int64) {
	a.Count++
	a.TotalNS += dur
	a.SelfNS += self
	b := bits.Len64(uint64(dur))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	a.Hist[b]++
}

func (a *spanAgg) merge(o *spanAgg) {
	a.Count += o.Count
	a.TotalNS += o.TotalNS
	a.SelfNS += o.SelfNS
	for i := range a.Hist {
		a.Hist[i] += o.Hist[i]
	}
}

// rareSpan is one individually kept span. Phases splits the span into named
// consecutive intervals: a GC pass into pick/copy/erase, a window end into
// threshold-pick/retrain/rest.
type rareSpan struct {
	ID      int32    `json:"id"`
	Parent  int32    `json:"parent"`
	Kind    string   `json:"kind"`
	StartNS int64    `json:"start_ns"`
	DurNS   int64    `json:"dur_ns"`
	Phases  [3]int64 `json:"phases_ns"`
}

type frame struct {
	kind    spanKind
	start   int64
	childNS int64
	rareID  int32 // 0 when the span is not kept individually
	phases  [3]int64
}

// tracer collects the spans and counts of one cell's traced run. It is
// driven from a single goroutine (the cell's replay loop); the sweep gives
// every cell its own tracer and merges them afterwards.
type tracer struct {
	layer string // span-name prefix: the package behind the separator
	clock func() int64
	on    bool // false during warm-up: wrappers forward without timing

	agg   [numSpanKinds]spanAgg
	stack []frame
	rare  []rareSpan
	next  int32

	// lastMark is when control last returned from the scheme to the FTL, or
	// the last FTL event: the start of a victim pick.
	lastMark int64

	gcStartAt, gcFirstErase int64
	thrAt                   int64

	gcPickNS, gcCopyNS, gcEraseNS int64
	thrPickNS, retrainNS          int64
	retrainExamples               uint64
	stalls                        uint64
	programs, reads, erases       uint64
}

func newTracer(layer string) *tracer {
	base := time.Now()
	return &tracer{
		layer: layer,
		clock: func() int64 { return int64(time.Since(base)) },
		stack: make([]frame, 0, 8),
	}
}

// start discards everything seen so far and opens the root span.
func (t *tracer) start() {
	clock, layer, stack := t.clock, t.layer, t.stack[:0]
	*t = tracer{layer: layer, clock: clock, stack: stack, on: true}
	t.lastMark = t.clock()
	t.enter(spReplay)
}

// stop closes the root span and returns its duration.
func (t *tracer) stop() int64 {
	dur := t.exit()
	t.on = false
	return dur
}

func (t *tracer) enter(k spanKind) {
	t.push(k, t.clock())
}

func (t *tracer) push(k spanKind, start int64) {
	f := frame{kind: k, start: start}
	if rareKinds[k] {
		t.next++
		f.rareID = t.next
	}
	t.stack = append(t.stack, f)
}

// exit closes the innermost span, charges it to its kind and to its parent's
// child time, and returns its duration.
func (t *tracer) exit() int64 { return t.exitAt(t.clock()) }

func (t *tracer) exitAt(now int64) int64 {
	n := len(t.stack) - 1
	f := &t.stack[n]
	dur := now - f.start
	t.agg[f.kind].add(dur, dur-f.childNS)
	if f.kind == spWindowEnd {
		f.phases[2] = dur - f.phases[0] - f.phases[1] // bookkeeping after retraining
	}
	if rareKinds[f.kind] {
		if f.rareID == 0 { // promoted to a rare kind after entry
			t.next++
			f.rareID = t.next
		}
		parent := int32(0)
		for i := n - 1; i >= 0; i-- {
			if id := t.stack[i].rareID; id != 0 {
				parent = id
				break
			}
		}
		t.rare = append(t.rare, rareSpan{
			ID: f.rareID, Parent: parent, Kind: t.layerName(f.kind),
			StartNS: f.start, DurNS: dur, Phases: f.phases,
		})
	}
	if n > 0 {
		t.stack[n-1].childNS += dur
	}
	t.stack = t.stack[:n]
	t.lastMark = now
	return dur
}

// layerName is the reported span name: scheme callbacks carry the scheme's
// package, FTL- and source-side spans their own.
func (t *tracer) layerName(k spanKind) string {
	switch k {
	case spReplay:
		return "bench.replay"
	case spNext:
		return "workload.next"
	case spGCPass:
		return "ftl.gc_pass"
	case spCalibrate:
		return "bench.calibrate"
	default:
		return t.layer + "." + spanNames[k]
	}
}

// Record implements obs.Recorder: it timestamps the rare FTL and trainer
// events that delimit GC passes and window ends, and ignores the hot kinds.
func (t *tracer) Record(ev obs.Event) {
	if !t.on {
		return
	}
	switch ev.Kind {
	case obs.KindSBClose:
		t.lastMark = t.clock()
	case obs.KindWriteStall:
		t.stalls++
		t.lastMark = t.clock()
	case obs.KindGCStart:
		now := t.clock()
		t.push(spGCPass, t.lastMark)
		t.gcStartAt, t.gcFirstErase = now, 0
	case obs.KindGCEnd:
		now := t.clock()
		f := &t.stack[len(t.stack)-1]
		if f.kind != spGCPass {
			return
		}
		erase := t.gcFirstErase
		if erase == 0 {
			erase = now
		}
		f.phases = [3]int64{t.gcStartAt - f.start, erase - t.gcStartAt, now - erase}
		t.gcPickNS += f.phases[0]
		t.gcCopyNS += f.phases[1]
		t.gcEraseNS += f.phases[2]
		t.gcStartAt = 0
		t.exitAt(now)
	case obs.KindThresholdUpdate:
		if n := len(t.stack); n > 0 && t.stack[n-1].kind == spPlaceUser {
			now := t.clock()
			f := &t.stack[n-1]
			f.kind = spWindowEnd
			f.phases[0] = now - f.start
			t.thrPickNS += f.phases[0]
			t.thrAt = now
		}
	case obs.KindWindowRetrain:
		if n := len(t.stack); n > 0 && t.stack[n-1].kind == spWindowEnd {
			f := &t.stack[n-1]
			f.phases[1] = t.clock() - t.thrAt
			t.retrainNS += f.phases[1]
			t.retrainExamples += uint64(ev.A)
		}
	}
}

// opHook is the nand.Device op hook: exact op counts, and the first erase of
// a GC pass (the copy -> erase boundary).
func (t *tracer) opHook(kind nand.OpKind, _ nand.PPN) {
	if !t.on {
		return
	}
	switch kind {
	case nand.OpProgram:
		t.programs++
	case nand.OpRead:
		t.reads++
	case nand.OpErase:
		t.erases++
		if t.gcFirstErase == 0 && t.gcStartAt != 0 {
			t.gcFirstErase = t.clock()
		}
	}
}

// rareDurationsMS returns the durations of the kept spans of one kind in
// milliseconds.
func (t *tracer) rareDurationsMS(k spanKind) []float64 {
	name := t.layerName(k)
	var out []float64
	for _, r := range t.rare {
		if r.Kind == name {
			out = append(out, float64(r.DurNS)/1e6)
		}
	}
	return out
}

// tracedSep forwards every ftl.Separator call to the wrapped scheme inside a
// span. It adds no behaviour: Stats of a wrapped run equal an unwrapped one.
type tracedSep struct {
	inner ftl.Separator
	t     *tracer
}

func (s *tracedSep) Name() string                 { return s.inner.Name() }
func (s *tracedSep) NumStreams() int              { return s.inner.NumStreams() }
func (s *tracedSep) StreamGCClass(stream int) int { return s.inner.StreamGCClass(stream) }

func (s *tracedSep) PlaceUserWrite(w ftl.UserWrite, clock uint64) (int, []byte) {
	if !s.t.on {
		return s.inner.PlaceUserWrite(w, clock)
	}
	s.t.enter(spPlaceUser)
	stream, oob := s.inner.PlaceUserWrite(w, clock)
	s.t.exit()
	return stream, oob
}

func (s *tracedSep) PlaceGCWrite(lpn nand.LPN, oldOOB []byte, gcClass int, clock uint64) (int, []byte) {
	if !s.t.on {
		return s.inner.PlaceGCWrite(lpn, oldOOB, gcClass, clock)
	}
	s.t.enter(spPlaceGC)
	stream, oob := s.inner.PlaceGCWrite(lpn, oldOOB, gcClass, clock)
	s.t.exit()
	return stream, oob
}

func (s *tracedSep) OnPagePlaced(lpn nand.LPN, ppn nand.PPN, userWrite bool) {
	if !s.t.on {
		s.inner.OnPagePlaced(lpn, ppn, userWrite)
		return
	}
	s.t.enter(spMetaPut)
	s.inner.OnPagePlaced(lpn, ppn, userWrite)
	s.t.exit()
}

func (s *tracedSep) OnUserRead(lpn nand.LPN, reqPages int) {
	if !s.t.on {
		s.inner.OnUserRead(lpn, reqPages)
		return
	}
	s.t.enter(spReadNote)
	s.inner.OnUserRead(lpn, reqPages)
	s.t.exit()
}

func (s *tracedSep) MetaPages(sb int) [][]byte {
	if !s.t.on {
		return s.inner.MetaPages(sb)
	}
	s.t.enter(spSeal)
	pages := s.inner.MetaPages(sb)
	s.t.exit()
	return pages
}

func (s *tracedSep) OnSuperblockErased(sb int) {
	if !s.t.on {
		s.inner.OnSuperblockErased(sb)
		return
	}
	s.t.enter(spDrop)
	s.inner.OnSuperblockErased(sb)
	s.t.exit()
}

// tracedTrimSep is tracedSep for schemes that implement ftl.TrimAware; the
// FTL discovers the extension by type assertion, so a scheme without it must
// be wrapped by the plain tracedSep.
type tracedTrimSep struct {
	tracedSep
	trim ftl.TrimAware
}

func (s *tracedTrimSep) OnTrim(lpn nand.LPN, oldPPN nand.PPN, clock uint64) {
	if !s.t.on {
		s.trim.OnTrim(lpn, oldPPN, clock)
		return
	}
	s.t.enter(spTrim)
	s.trim.OnTrim(lpn, oldPPN, clock)
	s.t.exit()
}

// wrapSeparator returns sep behind tracing forwarders, preserving whether it
// is TrimAware.
func wrapSeparator(sep ftl.Separator, t *tracer) ftl.Separator {
	base := tracedSep{inner: sep, t: t}
	if ta, ok := sep.(ftl.TrimAware); ok {
		return &tracedTrimSep{tracedSep: base, trim: ta}
	}
	return &base
}

// tracedReader forwards core.FlashReader (PHFTL's meta-page fetch on a cache
// miss) inside a span.
type tracedReader struct {
	inner core.FlashReader
	t     *tracer
}

func (r *tracedReader) ReadMetaPage(ppn nand.PPN) ([]byte, error) {
	if !r.t.on {
		return r.inner.ReadMetaPage(ppn)
	}
	r.t.enter(spFlashRead)
	data, err := r.inner.ReadMetaPage(ppn)
	r.t.exit()
	return data, err
}

// traceFile is what a traced run writes to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    map[string]spanAgg `json:"spans"`
	Rare     []rareSpan         `json:"rare_spans"`
}

// mergeTracers sums the aggregates of several cells' tracers by span name
// and concatenates their kept spans (ids are per cell; the sweep's kept
// spans are told apart by their kind prefix and start time only).
func mergeTracers(ts []*tracer) (map[string]spanAgg, []rareSpan) {
	spans := make(map[string]spanAgg)
	var rare []rareSpan
	for _, t := range ts {
		for k := spanKind(0); k < numSpanKinds; k++ {
			if t.agg[k].Count == 0 {
				continue
			}
			a := spans[t.layerName(k)]
			a.merge(&t.agg[k])
			spans[t.layerName(k)] = a
		}
		rare = append(rare, t.rare...)
	}
	return spans, rare
}
