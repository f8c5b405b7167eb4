package ftl

import "math"

// SBView is the read-only view of a closed superblock offered to victim
// policies.
type SBView struct {
	ID         int
	Stream     int
	GCClass    int
	Valid      int    // valid data pages
	Invalid    int    // invalid data pages
	DataPages  int    // data-region capacity
	CloseClock uint64 // virtual clock when the superblock closed
}

// VictimPolicy scores GC victim candidates; the superblock with the highest
// score is collected. Scores of -Inf exclude a candidate.
type VictimPolicy interface {
	Name() string
	Score(sb SBView, clock uint64) float64
}

// GreedyPolicy picks the superblock with the most invalid pages — the
// classic minimum-valid-page-copy policy.
type GreedyPolicy struct{}

// Name implements VictimPolicy.
func (GreedyPolicy) Name() string { return "Greedy" }

// Score implements VictimPolicy.
func (GreedyPolicy) Score(sb SBView, _ uint64) float64 {
	return float64(sb.Invalid) / float64(sb.DataPages)
}

// CostBenefitPolicy is the Cost-Benefit policy of LFS (Rosenblum & Ousterhout
// 1992), used by the paper for baselines that do not specify a victim policy:
// score = age·(1−u) / 2u, where u is the valid-page fraction and age the time
// since the superblock closed.
type CostBenefitPolicy struct{}

// Name implements VictimPolicy.
func (CostBenefitPolicy) Name() string { return "CostBenefit" }

// Score implements VictimPolicy.
func (CostBenefitPolicy) Score(sb SBView, clock uint64) float64 {
	return costBenefit(sb.Valid, sb.DataPages, clock-sb.CloseClock)
}

// MaxAgedScore implements VictimAgedScoreBound by evaluating Score's own
// expression at the oldest age the bucket can hold.
func (CostBenefitPolicy) MaxAgedScore(invalid, dataPages int, maxAge uint64) float64 {
	return costBenefit(dataPages-invalid, dataPages, maxAge)
}

// costBenefit is age·(1−u)/2u. For fixed u every step — the conversion of
// age, the product with 1−u ≥ 0, the quotient by 2u > 0 — is a correctly
// rounded monotone operation, so the result is non-decreasing in age as
// float64s, not just in the reals; MaxAgedScore relies on that.
func costBenefit(valid, dataPages int, age uint64) float64 {
	u := float64(valid) / float64(dataPages)
	if u == 0 {
		return math.Inf(1) // free win: nothing to migrate
	}
	return float64(age) * (1 - u) / (2 * u)
}

// ThresholdSource supplies the current classification threshold T (in
// virtual-clock units) to the Adjusted Greedy policy; PHFTL's adaptive
// labeler implements it.
type ThresholdSource interface {
	Threshold() float64
}

// FixedThreshold is a constant ThresholdSource for tests and baselines.
type FixedThreshold float64

// Threshold implements ThresholdSource.
func (t FixedThreshold) Threshold() float64 { return float64(t) }

// AdjustedGreedyPolicy implements the paper's Equation 1 (§III-D):
//
//	score = I / (V·T/C)  for superblocks holding short-living pages
//	score = I            otherwise
//
// where I and V are the invalid/valid page proportions, T the current
// classification threshold, and C the elapsed virtual time since the
// superblock closed. The V·T/C denominator discounts hot superblocks whose
// remaining valid pages are likely to die soon — but the discount decays
// with age (C), so superblocks full of mispredicted "false short-living"
// pages regain GC priority over genuinely hot ones.
type AdjustedGreedyPolicy struct {
	// Thresh supplies T. Required.
	Thresh ThresholdSource
	// IsShortStream reports whether a stream receives short-living pages.
	IsShortStream func(stream int) bool
}

// Name implements VictimPolicy.
func (p *AdjustedGreedyPolicy) Name() string { return "AdjustedGreedy" }

// Score implements VictimPolicy.
func (p *AdjustedGreedyPolicy) Score(sb SBView, clock uint64) float64 {
	inv := float64(sb.Invalid) / float64(sb.DataPages)
	if p.IsShortStream == nil || !p.IsShortStream(sb.Stream) {
		return inv
	}
	v := float64(sb.Valid) / float64(sb.DataPages)
	t := p.Thresh.Threshold()
	c := float64(clock - sb.CloseClock)
	if v == 0 {
		return math.Inf(1)
	}
	if t <= 0 || c <= 0 {
		// Degenerate window bootstrap: fall back to plain greedy with the
		// hot-superblock discount fully applied.
		return inv * 1e-6
	}
	// V·T/C is a *discount* divisor: while the superblock is younger than
	// the expected death time of its valid (hot) pages, its score shrinks;
	// once C outgrows V·T the pages have overstayed the prediction (likely
	// mispredicted) and the discount disappears. The divisor is clamped at
	// 1 so a short-living superblock never outranks an equally-invalid
	// long-living one purely by aging.
	discount := v * t / c
	if discount < 1 {
		discount = 1
	}
	return inv / discount
}
