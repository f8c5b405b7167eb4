package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/ml"
)

// bimodal builds lifetime samples with a short cluster around shortMean and
// a long tail around longMean, plus probe samples whose first feature
// perfectly separates the two groups (so the LR probes can rank candidate
// thresholds meaningfully).
func bimodal(rng *rand.Rand, n int, shortFrac float64, shortMean, longMean float64) ([]float64, []probeSample) {
	var lifetimes []float64
	var probes []probeSample
	for i := 0; i < n; i++ {
		short := rng.Float64() < shortFrac
		var life float64
		if short {
			life = shortMean * (0.5 + rng.Float64())
		} else {
			life = longMean * (0.5 + rng.Float64())
		}
		lifetimes = append(lifetimes, life)
		feat := []float64{0, rng.Float64()}
		if short {
			feat[0] = 1
		}
		probes = append(probes, probeSample{feat: feat, lifetime: life})
	}
	return lifetimes, probes
}

func TestFirstWindowUsesInflectionPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lifetimes, probes := bimodal(rng, 500, 0.7, 20, 5000)
	ta := NewThresholdAdjuster(1)
	if ta.Current() != 0 {
		t.Error("initial threshold should be 0")
	}
	got := ta.Pick(lifetimes, probes)
	// The inflection point must land at the knee: above the bulk of the
	// short cluster ([10,30]) and below the long tail ([2500,7500]).
	if got < 25 || got > 2500 {
		t.Fatalf("first-window threshold = %v, want near the knee", got)
	}
	if ta.Current() != got {
		t.Error("Current() does not track the picked threshold")
	}
}

func TestAdjustmentTracksSeparationBoundary(t *testing.T) {
	// Feed several windows where the ideal boundary sits between the
	// clusters; the adjuster must stay in the gap and not drift into either
	// cluster.
	rng := rand.New(rand.NewSource(2))
	ta := NewThresholdAdjuster(2)
	var got float64
	for w := 0; w < 10; w++ {
		lifetimes, probes := bimodal(rng, 400, 0.6, 20, 5000)
		got = ta.Pick(lifetimes, probes)
	}
	if got < 30 || got > 2600 {
		t.Fatalf("threshold after 10 windows = %v, want inside the gap", got)
	}
}

func TestStepStaysClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ta := NewThresholdAdjuster(3)
	for w := 0; w < 30; w++ {
		lifetimes, probes := bimodal(rng, 200, 0.5, 10, 1000)
		ta.Pick(lifetimes, probes)
		if s := ta.Step(); s < 1 || s > 10 {
			t.Fatalf("window %d: step = %d outside [1,10]", w, s)
		}
	}
}

func TestEmptyWindowKeepsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ta := NewThresholdAdjuster(4)
	lifetimes, probes := bimodal(rng, 300, 0.5, 10, 1000)
	first := ta.Pick(lifetimes, probes)
	got := ta.Pick(nil, nil)
	if got != first {
		t.Fatalf("empty window changed threshold: %v -> %v", first, got)
	}
}

func TestLabelAndResample(t *testing.T) {
	samples := []probeSample{
		{feat: []float64{1}, lifetime: 5},                  // short
		{feat: []float64{2}, lifetime: 6},                  // short
		{feat: []float64{3}, lifetime: 100},                // long
		{feat: []float64{4}, lifetime: 7, censored: true},  // unknown at t=10
		{feat: []float64{5}, lifetime: 50, censored: true}, // long at t=10
	}
	feats, labels := labelAndResample(samples, 10, 0)
	if len(feats) != len(labels) {
		t.Fatal("length mismatch")
	}
	pos, neg := 0, 0
	for _, l := range labels {
		if l == 1 {
			pos++
		} else {
			neg++
		}
	}
	if pos != neg {
		t.Errorf("unbalanced: %d pos, %d neg", pos, neg)
	}
	if pos != 2 {
		t.Errorf("pos = %d, want 2 (censored short-side sample must be skipped)", pos)
	}
	// Cap applies per class.
	feats, _ = labelAndResample(samples, 10, 1)
	if len(feats) != 2 {
		t.Errorf("capped len = %d, want 2", len(feats))
	}
}

func TestSingleClassWindowKeepsThreshold(t *testing.T) {
	ta := NewThresholdAdjuster(5)
	rng := rand.New(rand.NewSource(5))
	lifetimes, probes := bimodal(rng, 300, 0.5, 10, 1000)
	first := ta.Pick(lifetimes, probes)
	// A window where every sample is long-living relative to any candidate:
	// all candidates collapse to the same degenerate labeling.
	var lifetimes2 []float64
	var probes2 []probeSample
	for i := 0; i < 50; i++ {
		lifetimes2 = append(lifetimes2, 1e6+float64(i))
		probes2 = append(probes2, probeSample{feat: []float64{1, 0}, lifetime: 1e6 + float64(i)})
	}
	got := ta.Pick(lifetimes2, probes2)
	// Threshold may move to a candidate value, but must remain finite and
	// positive; and the adjuster must not crash on degenerate input.
	if got <= 0 {
		t.Fatalf("degenerate window produced threshold %v (first was %v)", got, first)
	}
}

// pickSequential is Pick as it was before the probes ran concurrently: each
// candidate is labeled and scored in turn, inside the ranking loop. It is
// the reference TestPickMatchesSequential holds Pick to.
func pickSequential(ta *ThresholdAdjuster, lifetimes []float64, samples []probeSample) float64 {
	if len(lifetimes) == 0 {
		ta.last = Decision{Step: ta.step}
		return ta.Current()
	}
	if !ta.prevValid {
		v, _ := metrics.InflectionPoint(lifetimes)
		ta.prev = v
		ta.prevValid = true
		ta.last = Decision{Seeded: true, Step: ta.step}
		return v
	}
	sort.Float64s(lifetimes)
	p := metrics.PercentileOfValue(lifetimes, ta.prev)
	var scratch probeScratch
	var eval ml.LogRegEvaluator
	bestAccu := math.Inf(-1)
	bestT := ta.prev
	bestDir := 0
	for _, dir := range []int{0, -1, 1} {
		t := metrics.ValueAtPercentile(lifetimes, p+float64(dir*ta.step))
		if dir != 0 && t == bestT {
			continue
		}
		feats, labels := scratch.labelAndResample(samples, t, 2048)
		if len(feats) == 0 {
			continue
		}
		accu := eval.Eval(feats, labels, ta.seed)
		if accu > bestAccu {
			bestAccu = accu
			bestT = t
			bestDir = dir
		}
	}
	if math.IsInf(bestAccu, -1) {
		bestT = ta.prev
		bestDir = 0
	}
	adjusted := bestDir != 0
	switch {
	case !ta.prevAdjusted && !adjusted:
		ta.step++
	case ta.prevAdjusted && !adjusted:
		ta.step--
	case ta.prevAdjusted && adjusted && ta.prevDir != bestDir:
		ta.step--
	case ta.prevAdjusted && adjusted && ta.prevDir == bestDir:
		ta.step++
	}
	ta.step = max(1, min(ta.step, 10))
	ta.prevAdjusted = adjusted
	ta.prevDir = bestDir
	ta.prev = bestT
	ta.last = Decision{Direction: bestDir, Step: ta.step}
	if !math.IsInf(bestAccu, -1) {
		ta.last.ProbeAccuracy = bestAccu
	}
	return bestT
}

// randomWindow draws one window of lifetimes and probe samples. kind picks
// the shape: 0 bimodal with a noisy separating feature, 1 lifetimes tied on
// a few values (±step percentiles collapse onto stay's), 2 lifetimes all
// shorter than any earlier window's (the previous threshold lies above the
// window's maximum, so stay and +step both land on it while −step can still
// win), 3 probes that are all
// long-lived or censored (single-class candidates), 4 no probe samples,
// 5 no lifetimes at all.
func randomWindow(rng *rand.Rand, kind int) ([]float64, []probeSample) {
	n := 40 + rng.Intn(260)
	boundary := 5 + rng.Float64()*200
	if kind == 2 {
		boundary = 2.5 + rng.Float64()*0.5
	}
	noise := rng.Float64() * 0.4
	lifetime := func() float64 {
		switch kind {
		case 1:
			return []float64{8, 8, 8, 30, 30, 500}[rng.Intn(6)]
		case 2:
			return 1 + rng.Float64()*2
		default:
			if rng.Float64() < 0.5 {
				return 1 + rng.Float64()*boundary
			}
			return boundary + rng.Float64()*2000
		}
	}
	if kind == 5 {
		return nil, nil
	}
	var lifetimes []float64
	var probes []probeSample
	for i := 0; i < n; i++ {
		life := lifetime()
		lifetimes = append(lifetimes, life)
		if kind == 4 {
			continue
		}
		s := probeSample{feat: []float64{0, rng.Float64()}, lifetime: life}
		if (life < boundary) != (rng.Float64() < noise) {
			s.feat[0] = 1
		}
		if kind == 3 {
			s.lifetime = 1e6 + life
			s.censored = rng.Float64() < 0.5
			if s.censored {
				s.lifetime = life / 1e3
			}
		}
		probes = append(probes, s)
	}
	return lifetimes, probes
}

// TestPickMatchesSequential holds the concurrent Pick to the sequential
// reference over randomized runs of windows, at one and two Ps: the same
// threshold, Decision and step after every window. It also requires the
// windows to have covered the cases where the shortcut of reusing stay's
// score could go wrong.
func TestPickMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(int64(24 + procs)))
		var collapsed, minusWinsPlusCollapsed, singleClass, noProbes, noLifetimes int
		var got, want *ThresholdAdjuster
		for w := 0; w < 300; w++ {
			if w%15 == 0 {
				seed := rng.Int63n(100)
				got, want = NewThresholdAdjuster(seed), NewThresholdAdjuster(seed)
			}
			kind := rng.Intn(6)
			if w%15 == 0 && kind >= 4 {
				kind = 0 // seed the adjuster with a usable first window
			}
			lifetimes, probes := randomWindow(rng, kind)

			// Candidate thresholds as the reference will see them.
			var ts [3]float64
			if want.prevValid && len(lifetimes) > 0 {
				sorted := slices.Clone(lifetimes)
				sort.Float64s(sorted)
				p := metrics.PercentileOfValue(sorted, want.prev)
				for i, dir := range probeDirs {
					ts[i] = metrics.ValueAtPercentile(sorted, p+float64(dir*want.step))
					if feats, _ := labelAndResample(probes, ts[i], 2048); len(feats) == 0 && len(probes) > 0 {
						singleClass++
					}
				}
				if ts[1] == ts[0] || ts[2] == ts[0] {
					collapsed++
				}
				if len(probes) == 0 {
					noProbes++
				}
			}
			if len(lifetimes) == 0 {
				noLifetimes++
			}

			wantT := pickSequential(want, slices.Clone(lifetimes), probes)
			gotT := got.Pick(slices.Clone(lifetimes), probes)
			if math.Float64bits(gotT) != math.Float64bits(wantT) {
				t.Fatalf("GOMAXPROCS=%d window %d (kind %d): threshold %v, sequential %v", procs, w, kind, gotT, wantT)
			}
			if got.LastDecision() != want.LastDecision() || got.Step() != want.Step() {
				t.Fatalf("GOMAXPROCS=%d window %d (kind %d): decision %+v step %d, sequential %+v step %d",
					procs, w, kind, got.LastDecision(), got.Step(), want.LastDecision(), want.Step())
			}
			if d := want.LastDecision(); d.Direction == -1 && ts[2] == ts[0] {
				minusWinsPlusCollapsed++
			}
		}
		t.Logf("GOMAXPROCS=%d: %d collapsed, %d −step wins over a collapsed +step, %d single-class candidates, %d without probes, %d without lifetimes",
			procs, collapsed, minusWinsPlusCollapsed, singleClass, noProbes, noLifetimes)
		for name, n := range map[string]int{
			"a ±step percentile collapsed onto stay's threshold": collapsed,
			"−step won while +step's threshold equalled stay's":  minusWinsPlusCollapsed,
			"a single-class candidate":                           singleClass,
			"a window without probe samples":                     noProbes,
			"a window without lifetimes":                         noLifetimes,
		} {
			if n == 0 {
				t.Errorf("GOMAXPROCS=%d: no window covered %s", procs, name)
			}
		}
	}
}
