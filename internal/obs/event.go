// Package obs is the observability layer of the PHFTL reproduction: a typed
// structured-event bus, a periodic time-series sampler, JSONL/CSV sinks, a
// text report renderer, and runtime-profiling helpers. The paper's headline
// results (Figures 5-7, Table I) are trajectories — WA, threshold, latency
// and classifier quality evolving over a trace replay — and this package is
// what turns the simulator's end-of-run aggregates into those trajectories:
// every GC pass, superblock transition, threshold move, retraining pass,
// metadata-cache outcome and write stall becomes an Event, and a Sampler
// snapshots the system's gauges on a fixed virtual-clock cadence.
//
// Instrumentation sites hold a nil Recorder by default and guard every emit
// with a nil check, so the disabled path costs one predictable branch and
// stays off the critical path.
package obs

// Kind identifies an event type.
type Kind uint8

// The event taxonomy. Each kind documents how it uses the generic payload
// fields of Event (unused fields are zero).
const (
	// KindGCStart marks the start of one victim collection. SB is the
	// victim, Stream/GCClass describe the victim's placement, A is its
	// valid-page count, B the free-superblock count at selection time and
	// F0 the victim's valid ratio (valid pages / data pages).
	KindGCStart Kind = iota + 1
	// KindGCEnd marks the completed collection (victim erased). SB is the
	// victim, A the number of valid pages migrated, B the free-superblock
	// count after the erase, and F0 the victim's valid ratio at selection.
	KindGCEnd
	// KindSBOpen marks a superblock leaving the free list for writes.
	// SB is the superblock, Stream/GCClass its placement, B the
	// free-superblock count after the allocation.
	KindSBOpen
	// KindSBClose marks a full superblock sealing (meta pages programmed).
	// SB is the superblock, Stream/GCClass its placement, A its valid-page
	// count at close time.
	KindSBClose
	// KindThresholdUpdate records one window's classification-threshold
	// decision. F0 is the old threshold, F1 the new one, F2 the winning
	// probe accuracy (0 when seeded), A the hill-climb direction (-1/0/+1),
	// B the adjuster's step after refinement, and C is 1 when the value
	// came from the lifetime-CDF inflection point (first window) and 0 for
	// hill-climb windows.
	KindThresholdUpdate
	// KindWindowRetrain records one Model Trainer window with an active
	// threshold. A is the number of labeled training examples, B is 1 when
	// a training pass ran and deployed a new model (0 when the window had
	// too few examples), F0 the last training loss and F1 the threshold the
	// labels were cut at. No field depends on the wall clock.
	KindWindowRetrain
	// KindMetaCacheHit records a metadata retrieval served by the RAM
	// meta-page cache. A is the meta-page PPN.
	KindMetaCacheHit
	// KindMetaCacheMiss records a metadata retrieval that required a flash
	// meta-page read. A is the meta-page PPN.
	KindMetaCacheMiss
	// KindMetaCacheEvict records an LRU eviction from the meta-page cache.
	// A is the evicted meta-page PPN.
	KindMetaCacheEvict
	// KindWriteStall records a host write blocked on reclamation or die
	// contention. A is the free-superblock count (FTL hard-floor stalls) or
	// the busy-die count (timing-model stalls), B is 0 for FTL hard-floor
	// stalls and 1 for timing-model die-contention stalls, and C is the
	// stall duration in simulated nanoseconds (timing-model stalls only).
	KindWriteStall
	// KindErase records one block erase with its physical coordinates from
	// the internal/nand geometry: SB is the superblock (== in-die block
	// index), A the die, B the block-in-die (equal to SB under superblock
	// addressing) and C the block's cumulative erase count after this
	// erase. One superblock collection emits Geometry.Dies of these.
	KindErase

	numKinds = int(KindErase) + 1
)

// NumKinds is the number of distinct Kind slots, including the catch-all
// index 0 used for unknown kinds. Consumers that keep per-kind state (the
// metrics registry, the trace recorder) size their arrays with it.
const NumKinds = numKinds

// KindByName maps a snake_case kind name (the String form used in JSONL and
// the HTTP events endpoint) back to its Kind. Returns false for unknown
// names.
func KindByName(name string) (Kind, bool) {
	for k := Kind(1); int(k) < numKinds; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// String returns the snake_case name used in JSONL output.
func (k Kind) String() string {
	switch k {
	case KindGCStart:
		return "gc_start"
	case KindGCEnd:
		return "gc_end"
	case KindSBOpen:
		return "sb_open"
	case KindSBClose:
		return "sb_close"
	case KindThresholdUpdate:
		return "threshold_update"
	case KindWindowRetrain:
		return "window_retrain"
	case KindMetaCacheHit:
		return "meta_cache_hit"
	case KindMetaCacheMiss:
		return "meta_cache_miss"
	case KindMetaCacheEvict:
		return "meta_cache_evict"
	case KindWriteStall:
		return "write_stall"
	case KindErase:
		return "erase"
	default:
		return "unknown"
	}
}

// Event is one structured trace event. It is a flat value type — no
// per-event allocation, no interface boxing — with a small set of generic
// payload fields whose meaning is fixed per Kind (see the Kind constants).
type Event struct {
	Kind  Kind
	Clock uint64 // FTL virtual clock: user pages written so far

	SB      int32 // superblock / victim ID, -1 when not applicable
	Stream  int16 // placement stream, -1 when not applicable
	GCClass int16 // GC class, -1 when not applicable

	A, B, C    int64   // kind-specific integers
	F0, F1, F2 float64 // kind-specific floats
}
