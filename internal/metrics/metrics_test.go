package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestWriteAmp(t *testing.T) {
	cases := []struct {
		flash, user uint64
		want        float64
	}{
		{100, 100, 0},
		{200, 100, 1.0},
		{150, 100, 0.5},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := WriteAmp(c.flash, c.user); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WriteAmp(%d,%d) = %v, want %v", c.flash, c.user, got, c.want)
		}
	}
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 8 TP, 2 FP, 85 TN, 5 FN.
	for i := 0; i < 8; i++ {
		c.Add(true, true)
	}
	for i := 0; i < 2; i++ {
		c.Add(true, false)
	}
	for i := 0; i < 85; i++ {
		c.Add(false, false)
	}
	for i := 0; i < 5; i++ {
		c.Add(false, true)
	}
	if c.Total() != 100 {
		t.Fatalf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-0.93) > 1e-9 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := c.Precision(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("Precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-8.0/13.0) > 1e-9 {
		t.Errorf("Recall = %v", got)
	}
	p, r := 0.8, 8.0/13.0
	if got := c.F1(); math.Abs(got-2*p*r/(p+r)) > 1e-9 {
		t.Errorf("F1 = %v", got)
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

func TestConfusionEmptyAndDegenerate(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("empty confusion should return zeros")
	}
	c.Add(false, false) // only negatives
	if c.Precision() != 0 || c.Recall() != 0 {
		t.Error("no-positive confusion should return zero precision/recall")
	}
}

func TestPercentiles(t *testing.T) {
	samples := make([]float64, 101)
	for i := range samples {
		samples[i] = float64(i)
	}
	rand.New(rand.NewSource(2)).Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
	got := Percentiles(samples, 0, 50, 99, 100)
	want := []float64{0, 50, 99, 100}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("pct[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if Percentiles(nil, 50) != nil {
		t.Error("Percentiles(nil) should be nil")
	}
}

// Percentiles linearly interpolates between the two closest ranks; it is NOT
// nearest-rank. The golden result files were produced with this definition,
// so this test pins it: nearest-rank would return 2 for the 25th percentile
// of {1,2,3,4}, interpolation returns 1.75.
func TestPercentilesLinearInterpolation(t *testing.T) {
	cases := []struct {
		p    float64
		want float64
	}{
		{10, 1.3},
		{25, 1.75},
		{50, 2.5},
		{75, 3.25},
		{90, 3.7},
	}
	for _, c := range cases {
		got := Percentiles([]float64{4, 2, 1, 3}, c.p)[0]
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentiles({1,2,3,4}, %v) = %v, want %v (interpolated)", c.p, got, c.want)
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(s); math.Abs(m-5) > 1e-12 {
		t.Errorf("Mean = %v", m)
	}
	if sd := StdDev(s); math.Abs(sd-2) > 1e-12 {
		t.Errorf("StdDev = %v", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate Mean/StdDev should be 0")
	}
}

func TestInflectionPointSkewedDistribution(t *testing.T) {
	// 90% of lifetimes small (around 10), 10% a long tail (around 10000).
	// The inflection point must land near the knee, i.e. well below the tail.
	rng := rand.New(rand.NewSource(3))
	var lifetimes []float64
	for i := 0; i < 900; i++ {
		lifetimes = append(lifetimes, 5+rng.Float64()*10)
	}
	for i := 0; i < 100; i++ {
		lifetimes = append(lifetimes, 8000+rng.Float64()*4000)
	}
	v, idx := InflectionPoint(lifetimes)
	if v > 100 {
		t.Errorf("inflection value = %v, want near the short cluster (<100)", v)
	}
	if idx < 700 || idx > 999 {
		t.Errorf("inflection index = %d, want near the knee (>=700)", idx)
	}
}

func TestInflectionPointDegenerate(t *testing.T) {
	if v, _ := InflectionPoint(nil); v != 0 {
		t.Errorf("empty: %v", v)
	}
	if v, _ := InflectionPoint([]float64{7}); v != 7 {
		t.Errorf("single: %v", v)
	}
	if v, _ := InflectionPoint([]float64{3, 9}); v != 9 {
		t.Errorf("two: %v", v)
	}
	// All-equal samples: line is vertical, fall back to median.
	same := []float64{5, 5, 5, 5, 5}
	if v, _ := InflectionPoint(same); v != 5 {
		t.Errorf("uniform: %v", v)
	}
}

func TestPercentileOfValueAndBack(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if p := PercentileOfValue(sorted, 50); math.Abs(p-40) > 1e-9 {
		t.Errorf("PercentileOfValue(50) = %v, want 40 (4 of 10 strictly below)", p)
	}
	if v := ValueAtPercentile(sorted, 0); v != 10 {
		t.Errorf("ValueAtPercentile(0) = %v", v)
	}
	if v := ValueAtPercentile(sorted, 100); v != 100 {
		t.Errorf("ValueAtPercentile(100) = %v", v)
	}
	if v := ValueAtPercentile(sorted, -5); v != 10 {
		t.Errorf("clamped low = %v", v)
	}
	if v := ValueAtPercentile(sorted, 150); v != 100 {
		t.Errorf("clamped high = %v", v)
	}
	if PercentileOfValue(nil, 1) != 0 || ValueAtPercentile(nil, 50) != 0 {
		t.Error("empty inputs should return 0")
	}
}

// Property: for any sample set, ValueAtPercentile(PercentileOfValue(v)) <= v
// for values drawn from the set (round-trip stays consistent with ordering).
func TestPercentileRoundTripProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sorted := make([]float64, len(raw))
		for i, b := range raw {
			sorted[i] = float64(b)
		}
		sort.Float64s(sorted)
		for _, v := range sorted {
			p := PercentileOfValue(sorted, v)
			got := ValueAtPercentile(sorted, p)
			if got > v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(100, 1.0)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i % 100))
	}
	if h.Count() != 1000 {
		t.Errorf("Count = %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-49.5) > 1e-9 {
		t.Errorf("Mean = %v", m)
	}
	q50 := h.Quantile(0.5)
	if q50 < 45 || q50 > 55 {
		t.Errorf("Quantile(0.5) = %v, want ~50", q50)
	}
	// Overflow goes to the last bucket.
	h2 := NewHistogram(10, 1.0)
	h2.Add(1e9)
	if h2.Quantile(0.5) < 9 {
		t.Errorf("overflow quantile = %v", h2.Quantile(0.5))
	}
	if (&Histogram{}).Mean() != 0 {
		t.Error("empty histogram mean should be 0")
	}
}

func TestWriteAmpUnderflowGuard(t *testing.T) {
	// flashWrites < userWrites must clamp to 0, not wrap the unsigned
	// subtraction to ~1.8e19 (seen with interval deltas taken before any
	// GC/meta writes were counted, and with Trim-heavy accounting).
	cases := []struct{ flash, user uint64 }{
		{99, 100},
		{0, 100},
		{0, 1},
		{math.MaxUint64 - 1, math.MaxUint64},
	}
	for _, c := range cases {
		if got := WriteAmp(c.flash, c.user); got != 0 {
			t.Errorf("WriteAmp(%d,%d) = %v, want 0", c.flash, c.user, got)
		}
	}
	if got := WriteAmp(math.MaxUint64, math.MaxUint64-1); got < 0 {
		t.Errorf("WriteAmp(max,max-1) = %v, want >= 0", got)
	}
}

func TestHistogramSingleBucketQuantile(t *testing.T) {
	h := NewHistogram(1, 10.0)
	for _, v := range []float64{1, 2, 3} {
		h.Add(v)
	}
	// Every quantile lands in the lone bucket; the midpoint estimate (5.0)
	// must be clamped into the observed [1, 3] range.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 1 || got > 3 {
			t.Errorf("Quantile(%v) = %v, want within observed [1,3]", q, got)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram(10, 1.0)
	h.Add(0.5)
	h.Add(1e9) // far past the histogram range: overflow bucket
	if h.Count() != 2 {
		t.Fatalf("Count = %d", h.Count())
	}
	// The high quantile falls in the overflow bucket, whose midpoint (9.5)
	// wildly underestimates; clamping reports the observed max instead.
	if got := h.Quantile(0.99); got != 1e9 {
		t.Errorf("Quantile(0.99) = %v, want observed max 1e9", got)
	}
	if got := h.Quantile(0); got < 0.5 || got > 1e9 {
		t.Errorf("Quantile(0) = %v outside observed range", got)
	}
}

// Samples beyond int's range must still land in the edge buckets: +Inf and
// a huge finite value in the overflow bucket, -Inf in the first.
func TestHistogramInfAndHuge(t *testing.T) {
	h := NewHistogram(4, 0.05)
	h.Add(math.Inf(1))
	h.Add(1e300)
	h.Add(math.Inf(-1))
	if got, want := h.AppendBuckets(nil), []uint64{1, 0, 0, 2}; !slices.Equal(got, want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
}

// Quantile(0) must report the observed minimum, symmetric with the
// final-bucket → observed-max rule; a clamped bucket midpoint (the old
// behaviour) overstates the minimum whenever the first sample sits below its
// bucket's midpoint.
func TestHistogramQuantileZeroReturnsMin(t *testing.T) {
	h := NewHistogram(10, 1.0)
	h.Add(0.2)
	h.Add(5.5)
	if got := h.Quantile(0); got != 0.2 {
		t.Errorf("Quantile(0) = %v, want observed min 0.2 (not the 0.5 bucket midpoint)", got)
	}
	if got := h.Quantile(1); got != 5.5 {
		t.Errorf("Quantile(1) = %v, want observed max 5.5", got)
	}
	// A negative observed minimum (clamped into bucket 0 for counting) must
	// still be reported exactly.
	h2 := NewHistogram(10, 1.0)
	h2.Add(-4)
	h2.Add(4)
	if got := h2.Quantile(0); got != -4 {
		t.Errorf("Quantile(0) = %v, want observed min -4", got)
	}
}

func TestHistogramNaNAndNegative(t *testing.T) {
	h := NewHistogram(10, 1.0)
	h.Add(math.NaN()) // dropped: must not poison count, sum or extrema
	if h.Count() != 0 {
		t.Fatalf("NaN was counted: Count = %d", h.Count())
	}
	h.Add(2)
	if m := h.Mean(); math.IsNaN(m) || m != 2 {
		t.Errorf("Mean after NaN+2 = %v, want 2", m)
	}
	// Negative samples clamp into the first bucket but keep their value in
	// the running sum.
	h2 := NewHistogram(10, 1.0)
	h2.Add(-4)
	h2.Add(4)
	if h2.Count() != 2 {
		t.Fatalf("Count = %d", h2.Count())
	}
	if m := h2.Mean(); m != 0 {
		t.Errorf("Mean = %v, want 0", m)
	}
	if q := h2.Quantile(0); q < -4 || q > 4 {
		t.Errorf("Quantile(0) = %v outside observed [-4,4]", q)
	}
}
