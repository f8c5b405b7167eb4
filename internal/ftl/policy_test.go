package ftl

import (
	"math"
	"math/rand"
	"testing"
)

func view(valid, invalid, dataPages int, closeClock uint64, stream int) SBView {
	return SBView{
		ID: 1, Stream: stream, Valid: valid, Invalid: invalid,
		DataPages: dataPages, CloseClock: closeClock,
	}
}

func TestGreedyPrefersMostInvalid(t *testing.T) {
	p := GreedyPolicy{}
	a := p.Score(view(10, 90, 100, 0, 0), 1000)
	b := p.Score(view(50, 50, 100, 0, 0), 1000)
	if a <= b {
		t.Errorf("greedy: 90-invalid score %v <= 50-invalid score %v", a, b)
	}
}

func TestCostBenefitAgeBreaksTies(t *testing.T) {
	p := CostBenefitPolicy{}
	young := p.Score(view(50, 50, 100, 900, 0), 1000)
	old := p.Score(view(50, 50, 100, 100, 0), 1000)
	if old <= young {
		t.Errorf("cost-benefit: old score %v <= young score %v", old, young)
	}
	// Empty superblock is a free win.
	if !math.IsInf(p.Score(view(0, 100, 100, 0, 0), 1000), 1) {
		t.Error("cost-benefit: zero-valid superblock should score +Inf")
	}
}

func TestAdjustedGreedyDiscountsShortLivingSuperblocks(t *testing.T) {
	p := &AdjustedGreedyPolicy{
		Thresh:        FixedThreshold(1000),
		IsShortStream: func(s int) bool { return s == 1 },
	}
	clock := uint64(2000)
	// Same occupancy: short-living superblock recently closed must score
	// below a long-living one (Eq. 1 discount), because its valid pages are
	// about to die on their own.
	long := p.Score(view(50, 50, 100, 1900, 0), clock)
	short := p.Score(view(50, 50, 100, 1900, 1), clock)
	if short >= long {
		t.Errorf("fresh short-living sb score %v >= long-living %v", short, long)
	}
	// But as the short-living superblock ages past the threshold (likely
	// mispredictions), its score recovers: C grows, discount shrinks.
	shortOld := p.Score(view(50, 50, 100, 0, 1), clock)
	if shortOld <= short {
		t.Errorf("aged short-living sb score %v <= fresh %v", shortOld, short)
	}
	// Once C outgrows V·T the discount saturates at 1: an aged-out short
	// superblock (likely holding mispredicted pages, §III-D) scores exactly
	// like plain greedy — never *below* an equally-occupied long one.
	if shortOld != long {
		t.Errorf("aged-out short sb %v should equal plain-greedy score %v", shortOld, long)
	}
}

func TestAdjustedGreedyEdgeCases(t *testing.T) {
	p := &AdjustedGreedyPolicy{
		Thresh:        FixedThreshold(0), // before first window
		IsShortStream: func(s int) bool { return s == 1 },
	}
	got := p.Score(view(50, 50, 100, 0, 1), 100)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("zero-threshold score = %v", got)
	}
	p2 := &AdjustedGreedyPolicy{Thresh: FixedThreshold(100), IsShortStream: func(s int) bool { return true }}
	if !math.IsInf(p2.Score(view(0, 100, 100, 0, 1), 200), 1) {
		t.Error("zero-valid short sb should score +Inf")
	}
	// Nil IsShortStream treats everything as long-living.
	p3 := &AdjustedGreedyPolicy{Thresh: FixedThreshold(100)}
	if got := p3.Score(view(50, 50, 100, 0, 1), 200); got != 0.5 {
		t.Errorf("nil IsShortStream score = %v, want plain greedy 0.5", got)
	}
}

func TestPolicyNames(t *testing.T) {
	if (GreedyPolicy{}).Name() != "Greedy" {
		t.Error("greedy name")
	}
	if (CostBenefitPolicy{}).Name() != "CostBenefit" {
		t.Error("cost-benefit name")
	}
	if (&AdjustedGreedyPolicy{}).Name() != "AdjustedGreedy" {
		t.Error("adjusted-greedy name")
	}
}

// TestCostBenefitAgedBoundDominates is the property the indexed selector's
// pruning rests on: for any member of a bucket no older than maxAge, the
// bound compares >= its score as float64s — not merely to within rounding.
func TestCostBenefitAgedBoundDominates(t *testing.T) {
	p := CostBenefitPolicy{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		dataPages := 1 + rng.Intn(4096)
		invalid := 1 + rng.Intn(dataPages) // == dataPages: u == 0
		// Ages from every magnitude, past 2^53 where uint64 -> float64 rounds.
		maxAge := rng.Uint64() >> uint(rng.Intn(64))
		if i%16 == 0 {
			maxAge = 0
		}
		age := maxAge
		if maxAge > 0 && i%4 != 0 {
			// Near the bound as often as far from it.
			age = maxAge - (rng.Uint64()%maxAge)>>uint(rng.Intn(64))
		}
		clock := maxAge + uint64(rng.Intn(1000))
		score := p.Score(view(dataPages-invalid, invalid, dataPages, clock-age, 0), clock)
		bound := p.MaxAgedScore(invalid, dataPages, maxAge)
		if !(bound >= score) {
			t.Fatalf("dataPages=%d invalid=%d age=%d maxAge=%d: bound %v < score %v",
				dataPages, invalid, age, maxAge, bound, score)
		}
		if age == maxAge && bound != score {
			t.Fatalf("dataPages=%d invalid=%d age=%d: bound %v != score %v of the oldest member",
				dataPages, invalid, age, bound, score)
		}
		if invalid == dataPages && !math.IsInf(bound, 1) {
			t.Fatalf("dataPages=%d: fully-invalid bucket bounds to %v, want +Inf", dataPages, bound)
		}
	}
}
