package registry

import (
	"math"
	"sync"
	"time"
)

// DefaultRateWindow is the sliding window over which live ops/sec figures
// are computed. Long enough to smooth sampler jitter, short enough that a
// burst-then-idle workload decays to zero within a minute instead of being
// averaged against the whole process lifetime.
const DefaultRateWindow = 30 * time.Second

// RateWindow estimates the rate of a monotone counter over a sliding time
// window. Callers feed it (time, total) observations — typically one per
// scrape or per progress tick — and read the rate between the oldest
// retained and the newest observation. Unlike a lifetime average
// (total/uptime), the estimate tracks the *current* rate: after a slow
// warm-up it converges to the steady-state rate, and on an idle queue it
// decays to zero as the window slides past the last progress.
type RateWindow struct {
	mu  sync.Mutex
	obs []rateObs
}

type rateObs struct {
	t     time.Time
	total uint64
}

// NewRateWindow creates a RateWindow spanning DefaultRateWindow.
func NewRateWindow() *RateWindow { return &RateWindow{} }

// Observe records the counter's current total at time t. Observations must
// be fed in nondecreasing time order per window (concurrent observers racing
// within a lock acquisition are fine; a total lower than an already-recorded
// one is dropped so a lagging reader cannot corrupt the slope).
func (w *RateWindow) Observe(t time.Time, total uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n := len(w.obs); n > 0 {
		last := w.obs[n-1]
		if t.Before(last.t) || total < last.total {
			return // stale reader: keep the window monotone on both axes
		}
	}
	w.obs = append(w.obs, rateObs{t: t, total: total})
	// Prune to the window, always keeping one observation at or before the
	// boundary as the slope's baseline, so the measured span stays ~window.
	cut := t.Add(-DefaultRateWindow)
	drop := 0
	for drop < len(w.obs)-1 && !w.obs[drop+1].t.After(cut) {
		drop++
	}
	if drop > 0 {
		w.obs = append(w.obs[:0], w.obs[drop:]...)
	}
}

// Rate returns the windowed rate in units per second, or NaN when fewer than
// two observations have been recorded (no slope yet — callers may fall back
// to a lifetime average). A genuinely idle window returns 0, not NaN.
func (w *RateWindow) Rate() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.obs) < 2 {
		return math.NaN()
	}
	first, last := w.obs[0], w.obs[len(w.obs)-1]
	sec := last.t.Sub(first.t).Seconds()
	if sec <= 0 {
		return math.NaN()
	}
	return float64(last.total-first.total) / sec
}

// LiveOpsPerSec returns the fleet's current replay rate: ops/sec over the
// registry's sliding window, falling back to the lifetime average until the
// window holds enough observations to have a slope. Every call records one
// observation, so any surface that polls this (the runner progress ticker,
// /api/v1/status scrapes) keeps the shared window fresh — and all of them
// report the same figure.
func (r *Registry) LiveOpsPerSec() float64 {
	t := r.Totals()
	r.opsRate.Observe(time.Now(), t.Ops)
	if rate := r.opsRate.Rate(); !math.IsNaN(rate) {
		return rate
	}
	if up := r.UptimeSeconds(); up > 0 {
		return float64(t.Ops) / up
	}
	return 0
}
