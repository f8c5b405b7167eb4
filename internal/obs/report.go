package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Report is a run summary distilled from a trace recorder and a sampler: GC
// activity by stream, the valid-ratio distribution of collected victims, the
// threshold timeline and the cache/stall/retrain counters. It renders as
// text (String) for README-able output.
type Report struct {
	// Events is the number of retained events the report was built from;
	// EventsDropped counts meta-cache ring overwrites (the counters below
	// still include them).
	Events        int
	EventsDropped uint64

	GCCount     uint64
	GCByStream  map[int]uint64
	GCValidP50  float64
	GCValidP99  float64
	GCMigrated  uint64
	SBOpens     uint64
	SBCloses    uint64
	WriteStalls uint64
	// Erases counts block-erase events (one per die per collected
	// superblock); wear-skew trajectories live in the sample series and the
	// per-die heatmap in runner.WearHeatmap.
	Erases      uint64
	CacheHits   uint64
	CacheMisses uint64
	CacheEvicts uint64
	// EventsSampledOut counts meta-cache events thinned before storage
	// (deliberate policy, distinct from ring-wraparound drops).
	EventsSampledOut uint64
	// Retrains counts all training windows. Rare kinds are never dropped,
	// so Deploys, GCMigrated, the valid-ratio percentiles and the
	// threshold timeline cover the whole run.
	Retrains      uint64
	Deploys       uint64
	LastTrainLoss float64

	ThresholdUpdates  uint64
	ThresholdFirst    float64
	ThresholdMin      float64
	ThresholdMax      float64
	ThresholdFinal    float64
	ThresholdTimeline []ThresholdPoint

	Samples    int
	FinalCumWA float64
	PeakIntWA  float64
}

// ThresholdPoint is one threshold decision on the virtual clock.
type ThresholdPoint struct {
	Clock uint64
	Value float64
}

// BuildReport summarizes retained events and samples. rec may be nil when
// only samples are available (and vice versa: samples may be nil).
func BuildReport(rec *TraceRecorder, samples []Sample) *Report {
	r := &Report{GCByStream: map[int]uint64{}}
	var validRatios []float64
	if rec != nil {
		events := rec.Events()
		r.Events = len(events)
		r.EventsDropped = rec.Dropped()
		// Per-kind totals survive thinning and ring wraparound.
		r.GCCount = rec.CountByKind(KindGCEnd)
		r.SBOpens = rec.CountByKind(KindSBOpen)
		r.SBCloses = rec.CountByKind(KindSBClose)
		r.WriteStalls = rec.CountByKind(KindWriteStall)
		r.Erases = rec.CountByKind(KindErase)
		r.CacheHits = rec.CountByKind(KindMetaCacheHit)
		r.CacheMisses = rec.CountByKind(KindMetaCacheMiss)
		r.CacheEvicts = rec.CountByKind(KindMetaCacheEvict)
		r.EventsSampledOut = rec.SampledOut()
		r.Retrains = rec.CountByKind(KindWindowRetrain)
		r.ThresholdUpdates = rec.CountByKind(KindThresholdUpdate)
		for _, ev := range events {
			switch ev.Kind {
			case KindGCEnd:
				r.GCByStream[int(ev.Stream)]++
				r.GCMigrated += uint64(ev.A)
				validRatios = append(validRatios, ev.F0)
			case KindThresholdUpdate:
				r.ThresholdTimeline = append(r.ThresholdTimeline, ThresholdPoint{Clock: ev.Clock, Value: ev.F1})
			case KindWindowRetrain:
				if ev.B != 0 {
					r.Deploys++
				}
				r.LastTrainLoss = ev.F0
			}
		}
	}
	if n := len(validRatios); n > 0 {
		sort.Float64s(validRatios)
		r.GCValidP50 = validRatios[n/2]
		r.GCValidP99 = validRatios[min(n-1, n*99/100)]
	}
	if n := len(r.ThresholdTimeline); n > 0 {
		r.ThresholdFirst = r.ThresholdTimeline[0].Value
		r.ThresholdFinal = r.ThresholdTimeline[n-1].Value
		r.ThresholdMin, r.ThresholdMax = r.ThresholdFirst, r.ThresholdFirst
		for _, p := range r.ThresholdTimeline {
			if p.Value < r.ThresholdMin {
				r.ThresholdMin = p.Value
			}
			if p.Value > r.ThresholdMax {
				r.ThresholdMax = p.Value
			}
		}
	}
	r.Samples = len(samples)
	for _, s := range samples {
		if s.IntervalWA > r.PeakIntWA {
			r.PeakIntWA = s.IntervalWA
		}
	}
	if len(samples) > 0 {
		r.FinalCumWA = samples[len(samples)-1].CumWA
	}
	return r
}

// String renders the report as aligned text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "observability report (%d retained events", r.Events)
	if r.EventsSampledOut > 0 {
		fmt.Fprintf(&b, ", %d thinned by per-kind sampling (counters exact)", r.EventsSampledOut)
	}
	if r.EventsDropped > 0 {
		fmt.Fprintf(&b, ", %d dropped by wraparound of the bounded meta-cache rings (counters exact)", r.EventsDropped)
	}
	fmt.Fprintf(&b, ", %d samples)\n", r.Samples)
	fmt.Fprintf(&b, "  gc collections       %d (%d pages migrated, valid-ratio p50 %.2f p99 %.2f)\n",
		r.GCCount, r.GCMigrated, r.GCValidP50, r.GCValidP99)
	if len(r.GCByStream) > 0 {
		streams := make([]int, 0, len(r.GCByStream))
		for s := range r.GCByStream {
			streams = append(streams, s)
		}
		sort.Ints(streams)
		b.WriteString("  gc victims by stream ")
		for i, s := range streams {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "s%d:%d", s, r.GCByStream[s])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  superblocks          %d opened, %d sealed\n", r.SBOpens, r.SBCloses)
	if r.Erases > 0 {
		fmt.Fprintf(&b, "  block erases         %d\n", r.Erases)
	}
	if r.WriteStalls > 0 {
		fmt.Fprintf(&b, "  write stalls         %d\n", r.WriteStalls)
	}
	if r.CacheHits+r.CacheMisses > 0 {
		hitRate := float64(r.CacheHits) / float64(r.CacheHits+r.CacheMisses)
		fmt.Fprintf(&b, "  meta cache           %.2f%% hit rate (%d hits, %d misses, %d evictions) — events sampled 1/%d, counters exact\n",
			hitRate*100, r.CacheHits, r.CacheMisses, r.CacheEvicts, HotSampleEvery)
	}
	if r.Retrains > 0 {
		fmt.Fprintf(&b, "  model trainer        %d training windows, %d deployed, last loss %.4f\n",
			r.Retrains, r.Deploys, r.LastTrainLoss)
	}
	if r.ThresholdUpdates > 0 {
		fmt.Fprintf(&b, "  threshold            %d updates: first %.0f, min %.0f, max %.0f, final %.0f\n",
			r.ThresholdUpdates, r.ThresholdFirst, r.ThresholdMin, r.ThresholdMax, r.ThresholdFinal)
	}
	if r.Samples > 0 {
		fmt.Fprintf(&b, "  write amplification  final %.1f%%, peak interval %.1f%%\n",
			r.FinalCumWA*100, r.PeakIntWA*100)
	}
	return b.String()
}
