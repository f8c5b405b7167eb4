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

// The retention rule. The meta-cache kinds are emitted once per metadata
// retrieval — millions per replay — so every event store thins them; the
// other kinds arrive at per-GC-pass rates and are kept whole.
const (
	// HotSampleEvery is the thinning rate of the meta-cache kinds: the first
	// event of each, then every HotSampleEvery-th (counters stay exact).
	HotSampleEvery = 16
	// hotRingCapacity bounds each meta-cache kind's ring in a TraceRecorder.
	hotRingCapacity = 1 << 14
)

// isHot reports whether k is a meta-cache kind.
func isHot(k Kind) bool { return k >= KindMetaCacheHit && k <= KindMetaCacheEvict }

const numHot = int(KindMetaCacheEvict-KindMetaCacheHit) + 1

// Keep reports whether the seen-th event of kind k (counting from 1) is
// stored. It is the thinning rule of both the TraceRecorder and the
// registry's HTTP drain.
func Keep(k Kind, seen uint64) bool {
	return !isHot(k) || (seen-1)%HotSampleEvery == 0
}

// Ring holds the newest values pushed into it. Each push takes the next
// sequence number, starting at 1; once the ring is full a push overwrites
// the oldest value. The buffer grows on demand up to the capacity, so a ring
// that never fills never pays for its bound. Not safe for concurrent use:
// its owner guards it.
type Ring[T any] struct {
	buf    []T
	mask   uint64 // capacity - 1
	newest uint64 // sequence number of the last push, 0 before the first
}

// NewRing returns an empty ring holding the newest capacity values, capacity
// rounded up to a power of two.
func NewRing[T any](capacity int) Ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return Ring[T]{mask: uint64(n - 1)}
}

// Push stores v under sequence number Newest()+1.
func (r *Ring[T]) Push(v T) {
	if i := r.newest & r.mask; i < uint64(len(r.buf)) {
		r.buf[i] = v
	} else {
		r.buf = append(r.buf, v)
	}
	r.newest++
}

// Newest returns the sequence number of the last push (0 before the first).
func (r *Ring[T]) Newest() uint64 { return r.newest }

// Oldest returns the sequence number of the oldest value held (Newest()+1
// when the ring is empty).
func (r *Ring[T]) Oldest() uint64 { return r.newest - uint64(len(r.buf)) + 1 }

// Dropped returns how many pushed values have been overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.newest - uint64(len(r.buf)) }

// At returns the value pushed under seq, which must lie in [Oldest, Newest].
func (r *Ring[T]) At(seq uint64) T { return r.buf[(seq-1)&r.mask] }

// slot is one retained event plus its record sequence number, which lets
// Events() merge the rings back into record order.
type slot struct {
	seq uint64
	ev  Event
}

// TraceRecorder is the in-memory event store of one replay. Rare kinds
// (GC, erase, superblock lifecycle, threshold, retrain, stall, and any
// out-of-range kind) are kept losslessly in one record-ordered slice; each
// meta-cache kind is thinned by Keep into a Ring of its newest events.
// Per-kind totals are always exact. Stores are guarded by a mutex — at
// simulator event rates an uncontended mutex is faster than a correct
// lock-free slot protocol and keeps the race detector meaningful for
// callers.
type TraceRecorder struct {
	mu     sync.Mutex
	rare   []slot
	hot    [numHot]Ring[slot]
	next   atomic.Uint64
	counts [numKinds]atomic.Uint64 // slot 0 counts out-of-range kinds
}

// NewTraceRecorder creates an empty recorder whose meta-cache rings each
// hold the newest capacity retained events (rounded up to a power of two);
// capacity <= 0 selects the default, 16 384.
func NewTraceRecorder(capacity int) *TraceRecorder {
	if capacity <= 0 {
		capacity = hotRingCapacity
	}
	r := &TraceRecorder{}
	for h := range r.hot {
		r.hot[h] = NewRing[slot](capacity)
	}
	return r
}

// Record implements Recorder. The per-kind count is bumped under the same
// lock as the store, so concurrent Records of one kind number their events
// (which decides what thinning keeps) in the same order as their record
// sequence.
func (r *TraceRecorder) Record(ev Event) {
	k := ev.Kind
	if int(k) >= numKinds {
		k = 0
	}
	r.mu.Lock()
	seen := r.counts[k].Add(1)
	s := slot{seq: r.next.Add(1) - 1, ev: ev}
	switch {
	case !isHot(k):
		r.rare = append(r.rare, s)
	case Keep(k, seen):
		r.hot[k-KindMetaCacheHit].Push(s)
	}
	r.mu.Unlock()
}

// Total returns the number of events ever recorded (including thinned and
// overwritten ones). Safe to call concurrently with Record.
func (r *TraceRecorder) Total() uint64 { return r.next.Load() }

// Dropped returns how many retained meta-cache events their rings have
// overwritten. Events thinned by Keep are a deliberate policy, not a loss,
// and are reported by SampledOut instead.
func (r *TraceRecorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total uint64
	for h := range r.hot {
		total += r.hot[h].Dropped()
	}
	return total
}

// SampledOut returns how many events Keep thinned out (their kind counters
// still include them).
func (r *TraceRecorder) SampledOut() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total uint64
	for h := range r.hot {
		total += r.counts[KindMetaCacheHit+Kind(h)].Load() - r.hot[h].Newest()
	}
	return total
}

// CountByKind returns the total number of events of the given kind ever
// recorded, including thinned events and ones a ring has since overwritten.
// Kind 0 counts the out-of-range kinds.
func (r *TraceRecorder) CountByKind(k Kind) uint64 {
	if int(k) >= numKinds {
		return 0
	}
	return r.counts[k].Load()
}

// Events returns the retained events merged into record order (oldest
// first).
func (r *TraceRecorder) Events() []Event {
	r.mu.Lock()
	slots := append([]slot(nil), r.rare...)
	for h := range r.hot {
		ring := &r.hot[h]
		for seq := ring.Oldest(); seq <= ring.Newest(); seq++ {
			slots = append(slots, ring.At(seq))
		}
	}
	r.mu.Unlock()
	sort.Slice(slots, func(i, j int) bool { return slots[i].seq < slots[j].seq })
	out := make([]Event, len(slots))
	for i, s := range slots {
		out[i] = s.ev
	}
	return out
}
