package core

import (
	"math"
	"runtime"
	"sort"

	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/ml"
	"github.com/phftl/phftl/internal/par"
)

// ThresholdAdjuster implements the paper's Algorithm 1: at the end of each
// write window it moves the classification threshold toward the direction
// that improves prediction accuracy, probing three candidate thresholds
// (the previous threshold's percentile ± an adaptive step) with lightweight
// logistic-regression models, and seeding the very first window with the
// inflection point of the lifetime CDF (Figure 2).
type ThresholdAdjuster struct {
	step         int // percentile step length, clamped to [1,10]
	prev         float64
	prevValid    bool
	prevAdjusted bool
	prevDir      int
	seed         int64
	last         Decision

	// Pooled probe machinery, one per candidate in probeDirs order: the
	// three probes of a window run concurrently, and their labeling buffers
	// and logistic-regression evaluators are reused across windows instead
	// of reallocated (results are bit-identical).
	probes [len(probeDirs)]probe
}

// probeDirs are Algorithm 1's candidates in evaluation order: stay first,
// then −step and +step.
var probeDirs = [...]int{0, -1, 1}

// probe is one candidate threshold's labeling and logistic-regression score.
type probe struct {
	scratch probeScratch
	eval    ml.LogRegEvaluator
	t       float64 // candidate threshold
	accu    float64 // held-out accuracy, valid when ok
	ok      bool    // the labeling had both classes
}

// run labels samples against the candidate threshold and scores it. The
// result depends on (samples, t, seed) only, so probes may run in any order.
func (pr *probe) run(samples []probeSample, seed int64) {
	feats, labels := pr.scratch.labelAndResample(samples, pr.t, 2048)
	pr.ok = len(feats) > 0
	if pr.ok {
		pr.accu = pr.eval.Eval(feats, labels, seed)
	}
}

// Decision describes how the last Pick call arrived at its threshold, for
// observability (obs.KindThresholdUpdate events).
type Decision struct {
	// Seeded is true when the threshold came from the lifetime-CDF
	// inflection point (the very first window), false for hill-climb
	// windows.
	Seeded bool
	// Direction is the winning hill-climb direction: -1, 0 (hold) or +1.
	Direction int
	// Step is the percentile step length after this window's refinement.
	Step int
	// ProbeAccuracy is the winning probe's logistic-regression accuracy
	// (0 when seeded or when no probe had both classes).
	ProbeAccuracy float64
}

// LastDecision returns how the most recent Pick chose its threshold.
func (ta *ThresholdAdjuster) LastDecision() Decision { return ta.last }

// initialStep is Algorithm 1's initialization of the adjustment step.
const initialStep = 5

// NewThresholdAdjuster returns an adjuster with the paper's initial state.
// seed makes the logistic-regression probes deterministic.
func NewThresholdAdjuster(seed int64) *ThresholdAdjuster {
	return &ThresholdAdjuster{step: initialStep, seed: seed}
}

// Current returns the threshold chosen at the last window (0 before any
// window completed).
func (ta *ThresholdAdjuster) Current() float64 {
	if !ta.prevValid {
		return 0
	}
	return ta.prev
}

// probeSample is one training example for the probes: the features of the
// write and the observed (or censored) lifetime.
type probeSample struct {
	feat     []float64
	lifetime float64
	censored bool // page not overwritten; lifetime is elapsed time so far
}

// labelAndResample labels samples against threshold t (1 = short-living) and
// balances classes by undersampling, following Algorithm 1's
// LabelAndResample. Censored samples whose elapsed time has not yet exceeded
// t are unknowable and skipped.
func labelAndResample(samples []probeSample, t float64, cap int) ([][]float64, []int) {
	return new(probeScratch).labelAndResample(samples, t, cap)
}

// probeScratch pools labelAndResample's buffers; the returned slices alias
// the scratch and are overwritten by the next call.
type probeScratch struct {
	posF, negF, feats [][]float64
	labels            []int
}

func (ps *probeScratch) labelAndResample(samples []probeSample, t float64, cap int) ([][]float64, []int) {
	posF, negF := ps.posF[:0], ps.negF[:0]
	for i := range samples {
		s := &samples[i]
		if s.lifetime < t {
			if s.censored {
				continue // might still die before t; label unknown
			}
			posF = append(posF, s.feat)
		} else {
			negF = append(negF, s.feat)
		}
	}
	ps.posF, ps.negF = posF, negF
	n := len(posF)
	if len(negF) < n {
		n = len(negF)
	}
	if cap > 0 && n > cap {
		n = cap
	}
	feats := ps.feats[:0]
	labels := ps.labels[:0]
	for i := 0; i < n; i++ {
		feats = append(feats, posF[i], negF[i])
		labels = append(labels, 1, 0)
	}
	ps.feats, ps.labels = feats, labels
	return feats, labels
}

// Pick runs one window's threshold adjustment. lifetimes are the window's
// resolved lifetime samples; samples are the probe training examples. It
// returns the new threshold and updates the adjuster's state.
func (ta *ThresholdAdjuster) Pick(lifetimes []float64, samples []probeSample) float64 {
	if len(lifetimes) == 0 {
		// Nothing observed this window: keep the previous threshold.
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

	for i, dir := range probeDirs {
		ta.probes[i].t = metrics.ValueAtPercentile(lifetimes, p+float64(dir*ta.step))
	}
	ta.runProbes(samples)

	// Rank the stay-put candidate first: when several candidates yield
	// identical labelings (flat accuracy landscape), ties must keep the
	// current threshold, or the walk drifts systematically in whichever
	// direction happens to be ranked first.
	bestAccu := math.Inf(-1)
	bestT := ta.prev
	bestDir := 0
	for i, dir := range probeDirs {
		pr := &ta.probes[i]
		if dir != 0 && pr.t == bestT {
			continue // percentile step collapsed onto the same value
		}
		if !pr.ok {
			continue
		}
		if pr.accu > bestAccu {
			bestAccu = pr.accu
			bestT = pr.t
			bestDir = dir
		}
	}
	if math.IsInf(bestAccu, -1) {
		// No candidate had both classes; threshold unchanged this window.
		bestT = ta.prev
		bestDir = 0
	}

	// Adaptive step refinement (Algorithm 1's tail).
	adjusted := bestDir != 0
	switch {
	case !ta.prevAdjusted && !adjusted:
		ta.step++ // stuck: widen to escape a local optimum
	case ta.prevAdjusted && !adjusted:
		ta.step-- // settled: try a finer step
	case ta.prevAdjusted && adjusted && ta.prevDir != bestDir:
		ta.step-- // fluctuating: damp
	case ta.prevAdjusted && adjusted && ta.prevDir == bestDir:
		ta.step++ // consistent direction: accelerate
	}
	if ta.step > 10 {
		ta.step = 10
	}
	if ta.step < 1 {
		ta.step = 1
	}
	ta.prevAdjusted = adjusted
	ta.prevDir = bestDir
	ta.prev = bestT
	ta.last = Decision{Direction: bestDir, Step: ta.step}
	if !math.IsInf(bestAccu, -1) {
		ta.last.ProbeAccuracy = bestAccu
	}
	return bestT
}

// runProbes scores every candidate threshold. A step candidate that collapsed
// onto stay's threshold reuses stay's score; the others run spread over the
// lanes of a par.Pool, one per CPU up to one per probe, created and closed
// before runProbes returns. With one CPU, or one probe to run, they run in
// turn on the caller.
func (ta *ThresholdAdjuster) runProbes(samples []probeSample) {
	stay := &ta.probes[0]
	todo := make([]*probe, 0, len(ta.probes))
	for i := range ta.probes {
		if pr := &ta.probes[i]; i == 0 || pr.t != stay.t {
			todo = append(todo, pr)
		}
	}
	pool := par.New(min(len(todo), runtime.GOMAXPROCS(0)))
	pool.Run(func(lane int) {
		for i := lane; i < len(todo); i += pool.Lanes() {
			todo[i].run(samples, ta.seed)
		}
	})
	pool.Close()
	for i := 1; i < len(ta.probes); i++ {
		if pr := &ta.probes[i]; pr.t == stay.t {
			pr.accu, pr.ok = stay.accu, stay.ok
		}
	}
}
