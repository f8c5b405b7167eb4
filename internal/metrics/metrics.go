// Package metrics provides the measurement primitives used across the PHFTL
// reproduction: write-amplification accounting, binary-classification scores
// (Table I), percentile estimation for latency distributions (Figure 7), and
// the lifetime-CDF inflection-point computation PHFTL uses to seed its
// classification threshold (Figure 2a).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// WriteAmp computes write amplification as defined in the paper, §V-B:
// WA = (F - U) / U where F is the flash write size and U the user write size
// (both in pages). A value of 0 means no amplification; 1.0 means flash
// writes were twice the user writes. Returns 0 when no user writes occurred,
// and clamps to 0 when flashWrites < userWrites — the unsigned subtraction
// would otherwise wrap to an astronomical value (possible on Trim-heavy
// accounting or interval deltas taken before any GC/meta writes landed).
func WriteAmp(flashWrites, userWrites uint64) float64 {
	if userWrites == 0 || flashWrites < userWrites {
		return 0
	}
	return float64(flashWrites-userWrites) / float64(userWrites)
}

// Confusion is a binary-classification confusion matrix. The "positive"
// class is short-living, following Table I.
type Confusion struct {
	TP, FP, TN, FN uint64
}

// Add records one prediction/ground-truth pair.
func (c *Confusion) Add(predictedPositive, actualPositive bool) {
	switch {
	case predictedPositive && actualPositive:
		c.TP++
	case predictedPositive && !actualPositive:
		c.FP++
	case !predictedPositive && actualPositive:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded samples.
func (c *Confusion) Total() uint64 { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/total, or 0 with no samples.
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// Precision returns TP/(TP+FP), or 0 when no positive predictions exist.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when no positive samples exist.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String formats the four Table I metrics.
func (c *Confusion) String() string {
	return fmt.Sprintf("acc=%.3f prec=%.3f rec=%.3f f1=%.3f (n=%d)",
		c.Accuracy(), c.Precision(), c.Recall(), c.F1(), c.Total())
}

// Percentiles computes the given percentiles (each in [0,100]) of samples
// using linear interpolation between the two closest ranks (the same
// definition as numpy's default): rank = p/100·(n−1), and a fractional rank
// blends the two neighbouring order statistics. This is NOT nearest-rank —
// e.g. the 25th percentile of {1,2,3,4} is 1.75, not 2 — and the checked-in
// golden results depend on the interpolating behaviour, so it must not be
// "fixed" to nearest-rank. The input slice is sorted in place. Returns nil
// for empty input.
func Percentiles(samples []float64, pcts ...float64) []float64 {
	if len(samples) == 0 {
		return nil
	}
	sort.Float64s(samples)
	out := make([]float64, len(pcts))
	for i, p := range pcts {
		out[i] = percentileSorted(samples, p)
	}
	return out
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// StdDev returns the population standard deviation, or 0 for fewer than two
// samples.
func StdDev(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	m := Mean(samples)
	sum := 0.0
	for _, v := range samples {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(samples)))
}

// InflectionPoint implements PHFTL's initial-threshold selection (§III-B,
// Figure 2a): sort the lifetime samples to obtain coordinates (L_i, i); the
// sample whose coordinate has the maximum distance from the straight line
// connecting (L_1, 1) and (L_N, N) is the inflection point of the empirical
// CDF — the entrance to the distribution's long tail.
//
// The input is sorted in place. Returns the selected lifetime value and its
// index in the sorted slice. For fewer than 3 samples it returns the median.
func InflectionPoint(lifetimes []float64) (value float64, index int) {
	n := len(lifetimes)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(lifetimes)
	if n < 3 {
		return lifetimes[n/2], n / 2
	}
	// Line through (x1,y1)=(L_0, 0) and (x2,y2)=(L_{n-1}, n-1).
	x1, y1 := lifetimes[0], 0.0
	x2, y2 := lifetimes[n-1], float64(n-1)
	dx, dy := x2-x1, y2-y1
	norm := math.Hypot(dx, dy)
	if norm == 0 {
		return lifetimes[n/2], n / 2
	}
	best, bestIdx := -1.0, n/2
	for i := 1; i < n-1; i++ {
		// Perpendicular distance from (L_i, i) to the line.
		d := math.Abs(dy*lifetimes[i]-dx*float64(i)+x2*y1-y2*x1) / norm
		if d > best {
			best = d
			bestIdx = i
		}
	}
	return lifetimes[bestIdx], bestIdx
}

// PercentileOfValue returns the percentile position (0-100) of value in the
// sorted sample set: the fraction of samples strictly below value. The input
// must already be sorted ascending.
func PercentileOfValue(sorted []float64, value float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(sorted, value)
	return float64(idx) / float64(len(sorted)) * 100
}

// ValueAtPercentile returns the sample at percentile p (0-100, clamped) of
// the sorted input.
func ValueAtPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentileSorted(sorted, clamp(p, 0, 100))
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Histogram is a fixed-bucket histogram over [0, max) with overflow counted
// in the last bucket, used for latency summaries where storing every sample
// would be too costly.
type Histogram struct {
	buckets []uint64
	width   float64
	count   uint64
	sum     float64
	minV    float64
	maxV    float64
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(n int, width float64) *Histogram {
	return &Histogram{
		buckets: make([]uint64, n),
		width:   width,
		minV:    math.Inf(1),
		maxV:    math.Inf(-1),
	}
}

// Add records one sample. NaN samples are dropped (a NaN would poison the
// running sum and min/max); negative samples are clamped into the first
// bucket and overflowing ones (+Inf included) into the last, both keeping
// their exact value in the sum and extrema. The bucket index is clamped as
// a float: converting an out-of-range float to int is undefined in Go (on
// amd64 it yields math.MinInt64, which would file +Inf in the first bucket).
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	idx := len(h.buckets) - 1
	switch q := v / h.width; {
	case q < 0:
		idx = 0
	case q < float64(idx):
		idx = int(q)
	}
	h.buckets[idx]++
	h.count++
	h.sum += v
	if v < h.minV {
		h.minV = v
	}
	if v > h.maxV {
		h.maxV = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact (unbucketed) sum of the recorded samples.
func (h *Histogram) Sum() float64 { return h.sum }

// AppendBuckets appends the per-bucket counts (not cumulative) to dst and
// returns it. Bucket i covers [i·width, (i+1)·width); the final bucket also
// absorbs every overflow sample. Exposition layers (the Prometheus /metrics
// renderer) turn these into cumulative le-bound counts.
func (h *Histogram) AppendBuckets(dst []uint64) []uint64 {
	return append(dst, h.buckets...)
}

// Mean returns the mean of the recorded samples (exact, not bucketed).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) from bucket
// midpoints, clamped to the observed [min, max] so coarse buckets never
// report a value outside the data. The extremes report exact observations
// rather than bucket estimates: q=0 returns the observed minimum, and a
// quantile landing in the final bucket reports the observed max — that
// bucket also absorbs every overflow sample, so its midpoint is meaningless.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.minV
	}
	target := uint64(clamp(q, 0, 1) * float64(h.count))
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum > target {
			if i == len(h.buckets)-1 {
				return h.maxV
			}
			return clamp((float64(i)+0.5)*h.width, h.minV, h.maxV)
		}
	}
	return h.maxV
}
