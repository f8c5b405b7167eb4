package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// appendFloat formats floats compactly and JSON-safely (NaN/Inf become 0,
// which JSON cannot represent).
func appendFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, '0')
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

func appendKV(dst []byte, key string, v int64) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':')
	return strconv.AppendInt(dst, v, 10)
}

func appendKVF(dst []byte, key string, v float64) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':')
	return appendFloat(dst, v)
}

// AppendJSON appends one event as a single JSON object (no trailing newline)
// with kind-specific field names, in stable order. run, when non-empty, tags
// the line so multiple runs can share one stream.
func AppendJSON(dst []byte, ev Event, run string) []byte {
	dst = append(dst, '{')
	return appendJSONBody(dst, ev, run)
}

// AppendJSONSeq is AppendJSON with a leading "seq" field, used by the HTTP
// events endpoint: the sequence number is the drain cursor clients pass back
// as ?since=. All other fields and their order match AppendJSON exactly, so
// line consumers (watop) parse both shapes with one decoder.
func AppendJSONSeq(dst []byte, seq uint64, ev Event, run string) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, ',')
	return appendJSONBody(dst, ev, run)
}

// appendJSONBody writes the event object's fields (from `"ev":` through the
// closing brace); the caller has already opened the object.
func appendJSONBody(dst []byte, ev Event, run string) []byte {
	dst = append(dst, `"ev":"`...)
	dst = append(dst, ev.Kind.String()...)
	dst = append(dst, '"')
	if run != "" {
		dst = append(dst, `,"run":`...)
		dst = strconv.AppendQuote(dst, run)
	}
	dst = appendKV(dst, "clock", int64(ev.Clock))
	switch ev.Kind {
	case KindGCStart:
		dst = appendKV(dst, "sb", int64(ev.SB))
		dst = appendKV(dst, "stream", int64(ev.Stream))
		dst = appendKV(dst, "gc_class", int64(ev.GCClass))
		dst = appendKV(dst, "valid", ev.A)
		dst = appendKV(dst, "free_sb", ev.B)
		dst = appendKVF(dst, "valid_ratio", ev.F0)
	case KindGCEnd:
		dst = appendKV(dst, "sb", int64(ev.SB))
		dst = appendKV(dst, "stream", int64(ev.Stream))
		dst = appendKV(dst, "gc_class", int64(ev.GCClass))
		dst = appendKV(dst, "migrated", ev.A)
		dst = appendKV(dst, "free_sb", ev.B)
		dst = appendKVF(dst, "valid_ratio", ev.F0)
	case KindSBOpen:
		dst = appendKV(dst, "sb", int64(ev.SB))
		dst = appendKV(dst, "stream", int64(ev.Stream))
		dst = appendKV(dst, "gc_class", int64(ev.GCClass))
		dst = appendKV(dst, "free_sb", ev.B)
	case KindSBClose:
		dst = appendKV(dst, "sb", int64(ev.SB))
		dst = appendKV(dst, "stream", int64(ev.Stream))
		dst = appendKV(dst, "gc_class", int64(ev.GCClass))
		dst = appendKV(dst, "valid", ev.A)
	case KindThresholdUpdate:
		dst = appendKVF(dst, "old", ev.F0)
		dst = appendKVF(dst, "new", ev.F1)
		dst = appendKVF(dst, "probe_accuracy", ev.F2)
		dst = appendKV(dst, "direction", ev.A)
		dst = appendKV(dst, "step", ev.B)
		dst = appendKV(dst, "inflection_seed", ev.C)
	case KindWindowRetrain:
		dst = appendKV(dst, "examples", ev.A)
		dst = appendKV(dst, "deployed", ev.B)
		dst = appendKVF(dst, "loss", ev.F0)
		dst = appendKVF(dst, "threshold", ev.F1)
	case KindMetaCacheHit, KindMetaCacheMiss, KindMetaCacheEvict:
		dst = appendKV(dst, "mppn", ev.A)
	case KindWriteStall:
		dst = appendKV(dst, "depth", ev.A)
		dst = appendKV(dst, "source", ev.B)
		dst = appendKV(dst, "wait_ns", ev.C)
	case KindErase:
		dst = appendKV(dst, "die", ev.A)
		dst = appendKV(dst, "block", ev.B)
		dst = appendKV(dst, "erase_count", ev.C)
	default:
		dst = appendKV(dst, "a", ev.A)
		dst = appendKV(dst, "b", ev.B)
		dst = appendKV(dst, "c", ev.C)
	}
	return append(dst, '}')
}

// AppendSampleJSON appends one sample as a single JSON object (no trailing
// newline), tagged "ev":"sample" so events and samples interleave in one
// JSONL stream.
func AppendSampleJSON(dst []byte, s Sample, run string) []byte {
	dst = append(dst, `{"ev":"sample"`...)
	if run != "" {
		dst = append(dst, `,"run":`...)
		dst = strconv.AppendQuote(dst, run)
	}
	dst = appendKV(dst, "clock", int64(s.Clock))
	dst = appendKVF(dst, "interval_wa", s.IntervalWA)
	dst = appendKVF(dst, "cum_wa", s.CumWA)
	dst = appendKV(dst, "free_sb", int64(s.FreeSB))
	dst = appendKVF(dst, "threshold", s.Threshold)
	if !math.IsNaN(s.CacheHitRatio) {
		// NaN means "no metadata cache" (baseline schemes); omit the field
		// rather than emit a fake value (JSON cannot represent NaN).
		dst = appendKVF(dst, "cache_hit", s.CacheHitRatio)
	}
	dst = appendKVF(dst, "queue_depth", s.QueueDepth)
	if !math.IsNaN(s.LatencyP50MS) {
		dst = appendKVF(dst, "lat_p50_ms", s.LatencyP50MS)
	}
	if !math.IsNaN(s.LatencyP99MS) {
		dst = appendKVF(dst, "lat_p99_ms", s.LatencyP99MS)
	}
	if !math.IsNaN(s.WearSkew) {
		dst = appendKVF(dst, "wear_skew", s.WearSkew)
	}
	if !math.IsNaN(s.WearCoV) {
		dst = appendKVF(dst, "wear_cov", s.WearCoV)
	}
	dst = append(dst, `,"open_fill":[`...)
	for i, f := range s.OpenFill {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, f)
	}
	return append(dst, ']', '}')
}

// WriteJSONL writes the events followed by the samples as JSON Lines,
// merge-ordered by clock so the stream reads chronologically. run, when
// non-empty, tags every line.
func WriteJSONL(w io.Writer, run string, events []Event, samples []Sample) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	ei, si := 0, 0
	for ei < len(events) || si < len(samples) {
		buf = buf[:0]
		if si >= len(samples) || (ei < len(events) && events[ei].Clock <= samples[si].Clock) {
			buf = AppendJSON(buf, events[ei], run)
			ei++
		} else {
			buf = AppendSampleJSON(buf, samples[si], run)
			si++
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSamplesCSV writes the sample series as CSV with a header row.
// Per-stream open fill is flattened to its mean to keep the column set
// fixed; the JSONL stream retains the full vector. threshold is printed at
// %.6f — PHFTL's hill-climbing steps can be smaller than 0.001, and the
// byte-compared golden baselines (make golden-check) must see them, so the
// CSV keeps enough precision to resolve a single step.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "clock,interval_wa,cum_wa,free_sb,threshold,cache_hit,queue_depth,lat_p50_ms,lat_p99_ms,open_fill_mean,wear_skew,wear_cov"); err != nil {
		return err
	}
	for _, s := range samples {
		fill := 0.0
		if len(s.OpenFill) > 0 {
			for _, f := range s.OpenFill {
				fill += f
			}
			fill /= float64(len(s.OpenFill))
		}
		hit := ""
		if !math.IsNaN(s.CacheHitRatio) {
			hit = fmt.Sprintf("%.6f", s.CacheHitRatio)
		}
		p50, p99 := "", ""
		if !math.IsNaN(s.LatencyP50MS) {
			p50 = fmt.Sprintf("%.3f", s.LatencyP50MS)
		}
		if !math.IsNaN(s.LatencyP99MS) {
			p99 = fmt.Sprintf("%.3f", s.LatencyP99MS)
		}
		skew, cov := "", ""
		if !math.IsNaN(s.WearSkew) {
			skew = fmt.Sprintf("%.4f", s.WearSkew)
		}
		if !math.IsNaN(s.WearCoV) {
			cov = fmt.Sprintf("%.4f", s.WearCoV)
		}
		if _, err := fmt.Fprintf(bw, "%d,%.6f,%.6f,%d,%.6f,%s,%.2f,%s,%s,%.4f,%s,%s\n",
			s.Clock, s.IntervalWA, s.CumWA, s.FreeSB, s.Threshold,
			hit, s.QueueDepth, p50, p99, fill, skew, cov); err != nil {
			return err
		}
	}
	return bw.Flush()
}
