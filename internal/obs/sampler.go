package obs

// Sample is one periodic snapshot of the system's gauges, taken on the FTL's
// virtual clock (user pages written).
type Sample struct {
	// Clock is the virtual-clock value the snapshot was taken at.
	Clock uint64
	// IntervalWA is the write amplification over the pages written since
	// the previous sample — the quantity Figure 5's trajectories plot.
	IntervalWA float64
	// CumWA is the cumulative write amplification since the start of run.
	CumWA float64
	// FreeSB is the current free-superblock count.
	FreeSB int
	// OpenFill is the per-stream fill fraction (written/data pages) of each
	// stream's open superblock; 0 when the stream has none open.
	OpenFill []float64
	// Threshold is PHFTL's current classification threshold (0 for
	// baselines and before the first window).
	Threshold float64
	// CacheHitRatio is the metadata cache's cumulative flash-backed hit
	// ratio. NaN marks schemes without a metadata store (the baselines);
	// the JSONL sink omits the field and the CSV sink leaves it empty.
	CacheHitRatio float64
	// QueueDepth is the busy-die count observed by the timing model at the
	// last request (0 outside timing-model runs).
	QueueDepth float64
	// LatencyP50MS and LatencyP99MS are the P50/P99 write-request latencies
	// in milliseconds over the interval since the previous sample, measured
	// by the timing model. NaN marks functional replays (no timing model)
	// and intervals without timed writes; the JSONL sink omits the fields
	// and the CSV sink leaves them empty.
	LatencyP50MS float64
	LatencyP99MS float64
	// WearSkew and WearCoV are wear-evenness gauges over the device's
	// per-block erase counts (nand.Device.WearSkew/WearCoV): WearSkew is the
	// max/mean ratio (1.0 = perfectly even) and WearCoV the coefficient of
	// variation (stddev/mean). NaN marks instants before the first erase;
	// the JSONL sink omits the fields and the CSV sink leaves them empty.
	WearSkew float64
	WearCoV  float64
}

// SnapshotFunc produces one sample at the given virtual clock. The wiring
// layer (internal/sim) builds it as a closure over the live system.
type SnapshotFunc func(clock uint64) Sample

// Sampler turns a SnapshotFunc into an in-memory time series by sampling
// every fixed number of virtual-clock ticks. Tick is designed to sit on the
// replay loop: it is one comparison in the common (no sample due) case.
type Sampler struct {
	every  uint64
	next   uint64
	snap   SnapshotFunc
	series []Sample
}

// NewSampler creates a sampler emitting one sample every `every` user-page
// writes. every < 1 is clamped to 1.
func NewSampler(every uint64, snap SnapshotFunc) *Sampler {
	if every < 1 {
		every = 1
	}
	return &Sampler{every: every, next: every, snap: snap}
}

// Tick takes a sample if the clock has reached the next sampling instant.
// Clock jumps larger than the interval produce a single sample (the series
// records state, not per-interval deltas, so repeating a snapshot at one
// instant would only duplicate rows).
func (s *Sampler) Tick(clock uint64) {
	if clock < s.next {
		return
	}
	s.series = append(s.series, s.snap(clock))
	s.next = clock - clock%s.every + s.every
}

// Final forces a last sample at the given clock unless one was already taken
// there, so a run's end state is always in the series.
func (s *Sampler) Final(clock uint64) {
	if n := len(s.series); n > 0 && s.series[n-1].Clock == clock {
		return
	}
	s.series = append(s.series, s.snap(clock))
}

// Series returns the accumulated samples (oldest first). The slice is the
// sampler's own; callers must not modify it while sampling continues.
func (s *Sampler) Series() []Sample { return s.series }
