package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Recorder consumes trace events. Implementations must tolerate events from
// multiple goroutines (the timing model fans requests out).
type Recorder interface {
	Record(ev Event)
}

// teeRecorder fans one event out to two recorders.
type teeRecorder struct{ a, b Recorder }

// Record implements Recorder.
func (t teeRecorder) Record(ev Event) {
	t.a.Record(ev)
	t.b.Record(ev)
}

// Tee returns a Recorder that forwards every event to both recorders, in
// order. A nil argument collapses to the other recorder (nil both returns
// nil), so wiring layers can tee optional consumers without branching at
// every emit site.
func Tee(a, b Recorder) Recorder {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return teeRecorder{a, b}
}

// KindPolicy sizes the retention of one event kind.
type KindPolicy struct {
	// Cap bounds the retained events of the kind: the newest Cap events
	// (rounded up to a power of two) are kept, older ones are overwritten
	// and counted as dropped. Cap <= 0 makes the kind lossless: its buffer
	// grows without bound and nothing is ever overwritten.
	Cap int
	// SampleEvery thins the kind before storage: only every SampleEvery-th
	// event of the kind is retained (the first, then every Nth). Per-kind
	// totals stay exact — sampling loses payloads, not counts — and the
	// rate is queryable (SampleEveryOf) so consumers can rescale.
	// Values <= 1 retain every event.
	SampleEvery uint64
}

// RingPolicy assigns a KindPolicy to every event kind, indexed by Kind.
// Index 0 is the catch-all for unknown kinds.
type RingPolicy [numKinds]KindPolicy

// Default per-kind sizing. Hot kinds are the ones emitted per metadata
// retrieval — millions per replay — where a one-size ring used to evict
// every rare event long before the run ended; they get a bounded ring plus
// sampling. Rare kinds (superblock lifecycle, GC, erase, threshold,
// retrain, stall) arrive at per-GC-pass rates and are kept lossless.
const (
	// DefaultHotRingCapacity bounds each hot kind's ring.
	DefaultHotRingCapacity = 1 << 14
	// DefaultHotSampleEvery is the default thinning rate of hot kinds: one
	// in every 16 meta-cache events is retained (counters stay exact).
	DefaultHotSampleEvery = 16
)

// HotSampleEvery is the thinning rate of kind k wherever events are retained
// (the TraceRecorder's default rings, the registry's HTTP drain ring): the
// kinds emitted on the metadata-cache fast path keep the first event and then
// every DefaultHotSampleEvery-th, every other kind keeps all (1).
func HotSampleEvery(k Kind) uint64 {
	switch k {
	case KindMetaCacheHit, KindMetaCacheMiss, KindMetaCacheEvict:
		return DefaultHotSampleEvery
	}
	return 1
}

// DefaultRingPolicy returns the default sizing: lossless rare kinds,
// bounded+sampled hot kinds, and a bounded catch-all for unknown kinds.
func DefaultRingPolicy() RingPolicy {
	var p RingPolicy
	for k := range p {
		p[k].SampleEvery = HotSampleEvery(Kind(k))
		if p[k].SampleEvery > 1 {
			p[k].Cap = DefaultHotRingCapacity // rare kinds stay lossless (Cap 0)
		}
	}
	p[0].Cap = DefaultRingCapacity
	return p
}

// slot is one retained event plus its global record sequence number, which
// lets Events() re-merge the per-kind rings into record order.
type slot struct {
	seq uint64
	ev  Event
}

// kindRing retains one kind under its policy. Bounded rings allocate lazily
// (append until Cap, then wrap); lossless rings grow forever.
type kindRing struct {
	pol        KindPolicy
	cap        int // Cap rounded up to a power of two; 0 = lossless
	mask       uint64
	buf        []slot
	stored     uint64 // events stored into buf (including overwritten ones)
	sampledOut uint64 // events skipped by sampling (still counted)
}

func (r *kindRing) init(pol KindPolicy) {
	r.pol = pol
	if pol.Cap > 0 {
		n := 1
		for n < pol.Cap {
			n <<= 1
		}
		r.cap = n
		r.mask = uint64(n - 1)
	}
}

func (r *kindRing) store(seq uint64, ev Event, seen uint64) {
	if r.pol.SampleEvery > 1 && (seen-1)%r.pol.SampleEvery != 0 {
		r.sampledOut++
		return
	}
	s := slot{seq: seq, ev: ev}
	if r.cap == 0 || len(r.buf) < r.cap {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.stored&r.mask] = s
	}
	r.stored++
}

func (r *kindRing) dropped() uint64 {
	if r.cap > 0 && r.stored > uint64(len(r.buf)) {
		return r.stored - uint64(len(r.buf))
	}
	return 0
}

// TraceRecorder is a bounded in-memory event store with one ring per event
// kind: rare kinds (GC, erase, superblock lifecycle, threshold, retrain,
// stall) are retained losslessly, hot kinds (meta-cache traffic) are
// sampled into bounded rings, and per-kind totals are always exact. Slot
// writes are guarded by a mutex — at simulator event rates an uncontended
// mutex is faster than a correct lock-free slot protocol and keeps the
// race detector meaningful for callers.
type TraceRecorder struct {
	mu     sync.Mutex
	rings  [numKinds]kindRing
	next   atomic.Uint64
	counts [numKinds]atomic.Uint64
}

// DefaultRingCapacity sizes the catch-all ring for unknown kinds.
const DefaultRingCapacity = 1 << 16

// NewTraceRecorder creates a recorder under DefaultRingPolicy (lossless rare
// kinds, sampled hot kinds). capacity > 0 instead bounds every kind's ring at
// capacity events (rounded up to a power of two), keeping the default
// sampling rates.
func NewTraceRecorder(capacity int) *TraceRecorder {
	pol := DefaultRingPolicy()
	r := &TraceRecorder{}
	for k := range r.rings {
		if capacity > 0 {
			pol[k].Cap = capacity
		}
		r.rings[k].init(pol[k])
	}
	return r
}

// Capacity returns the total bounded-ring capacity in events, excluding
// lossless kinds (which have no bound).
func (r *TraceRecorder) Capacity() int {
	total := 0
	for k := range r.rings {
		total += r.rings[k].cap
	}
	return total
}

// SampleEveryOf returns the retention sampling rate of a kind: 1 means
// every event of the kind is retained, N > 1 means one in N (counters are
// exact either way).
func (r *TraceRecorder) SampleEveryOf(k Kind) uint64 {
	if int(k) >= numKinds {
		k = 0
	}
	if s := r.rings[k].pol.SampleEvery; s > 1 {
		return s
	}
	return 1
}

// Record implements Recorder. The per-kind count is bumped under the same
// lock as the slot reservation, so concurrent Records of one kind number
// their events (which decides what sampling retains) in the same order as
// their record sequence.
func (r *TraceRecorder) Record(ev Event) {
	k := int(ev.Kind)
	if k >= numKinds {
		k = 0 // catch-all ring for unknown kinds
	}
	r.mu.Lock()
	seen := r.counts[k].Add(1)
	seq := r.next.Add(1) - 1
	r.rings[k].store(seq, ev, seen)
	r.mu.Unlock()
}

// Total returns the number of events ever recorded (including sampled-out
// and overwritten ones). Safe to call concurrently with Record.
func (r *TraceRecorder) Total() uint64 { return r.next.Load() }

// Dropped returns how many stored events have been overwritten by ring
// wraparound across all bounded kinds. Events thinned by sampling are a
// deliberate policy, not a loss, and are reported by SampledOut instead.
func (r *TraceRecorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total uint64
	for k := range r.rings {
		total += r.rings[k].dropped()
	}
	return total
}

// SampledOut returns how many events were skipped by per-kind sampling
// (their kind counters still include them).
func (r *TraceRecorder) SampledOut() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total uint64
	for k := range r.rings {
		total += r.rings[k].sampledOut
	}
	return total
}

// CountByKind returns the total number of events of the given kind ever
// recorded, including sampled-out events and ones a ring has since
// overwritten.
func (r *TraceRecorder) CountByKind(k Kind) uint64 {
	if int(k) >= numKinds {
		return 0
	}
	return r.counts[k].Load()
}

// Events returns the retained events of every kind merged back into record
// order (oldest first).
func (r *TraceRecorder) Events() []Event {
	r.mu.Lock()
	var slots []slot
	for k := range r.rings {
		slots = append(slots, r.rings[k].buf...)
	}
	r.mu.Unlock()
	sort.Slice(slots, func(i, j int) bool { return slots[i].seq < slots[j].seq })
	out := make([]Event, len(slots))
	for i, s := range slots {
		out[i] = s.ev
	}
	return out
}
