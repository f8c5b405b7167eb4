package ftl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
)

// selectorMode says what a test puts behind FTL.victimHook.
type selectorMode uint8

const (
	// selIndexed leaves the hook nil: the production selector.
	selIndexed selectorMode = iota
	// selScan installs the reference full scan.
	selScan
	// selCrossCheck runs both on every GC decision and panics if they
	// disagree, pinpointing the clock of the first divergence.
	selCrossCheck
)

func (f *FTL) setSelectorMode(m selectorMode) {
	switch m {
	case selIndexed:
		f.victimHook = nil
	case selScan:
		f.victimHook = f.selectVictimScan
	case selCrossCheck:
		var hook func() int
		hook = func() int {
			s := f.selectVictimScan()
			f.victimHook = nil
			i := f.selectVictim()
			f.victimHook = hook
			if s != i {
				panic(fmt.Sprintf("ftl: victim selector divergence at clock %d: scan=%d indexed=%d", f.clock, s, i))
			}
			return s
		}
		f.victimHook = hook
	}
}

// selectVictimScan is the reference selector: a full scan over all
// superblocks in ascending ID order with a strict score comparison, which
// realizes the lowest-ID tie-break implicitly.
func (f *FTL) selectVictimScan() int {
	best := -1
	bestScore := math.Inf(-1)
	for id := range f.sbs {
		sb := &f.sbs[id]
		if sb.state != SBClosed {
			continue
		}
		invalid := f.dataPages - sb.valid
		if invalid == 0 {
			continue
		}
		view := SBView{
			ID:         id,
			Stream:     sb.stream,
			GCClass:    sb.gcClass,
			Valid:      sb.valid,
			Invalid:    invalid,
			DataPages:  f.dataPages,
			CloseClock: sb.closeClock,
		}
		if score := f.policy.Score(view, f.clock); score > bestScore {
			bestScore = score
			best = id
		}
	}
	return best
}

// victimRecorder captures the sequence of GC victims an FTL collects.
type victimRecorder struct {
	victims []int32
}

func (r *victimRecorder) Record(ev obs.Event) {
	if ev.Kind == obs.KindGCStart {
		r.victims = append(r.victims, ev.SB)
	}
}

// diffProfile is one workload shape for the scan-vs-indexed differential.
type diffProfile struct {
	name  string
	geo   nand.Geometry
	dw    int // drive writes of overwrites after the fill
	write func(f *FTL, rng *rand.Rand) error
}

// largeGeo is shaped like the drives the benchmark replays, at a quarter of
// base-large's size: 2 048 superblocks of 128 data pages, so a selector that
// fails to prune shows and the index has as many buckets as it has there.
func largeGeo() nand.Geometry {
	return nand.Geometry{PageSize: 4096, OOBSize: 64, PagesPerBlock: 32, BlocksPerDie: 2048, Dies: 4}
}

// ageSkewed is the large-geometry profile: three temperature tiers, so closed
// superblocks of one invalid count span two orders of magnitude in age, and a
// sliver of trims that bump superblocks between buckets outside Write.
var ageSkewed = diffProfile{name: "ageskew-large", geo: largeGeo(), dw: 2, write: func(f *FTL, rng *rand.Rand) error {
	n := f.ExportedPages()
	var lpn nand.LPN
	switch r := rng.Intn(100); {
	case r < 80:
		lpn = nand.LPN(rng.Intn(n / 20))
	case r < 95:
		lpn = nand.LPN(rng.Intn(n / 4))
	default:
		lpn = nand.LPN(rng.Intn(n))
	}
	if rng.Intn(64) == 0 {
		return f.Trim(lpn)
	}
	return f.Write(UserWrite{LPN: lpn, ReqPages: 1})
}}

func diffProfiles() []diffProfile {
	return []diffProfile{
		{name: "uniform", geo: smallGeo(), dw: 4, write: func(f *FTL, rng *rand.Rand) error {
			return f.Write(UserWrite{LPN: nand.LPN(rng.Intn(f.ExportedPages())), ReqPages: 1})
		}},
		// 90% of writes hit the hottest 10% of LPNs; a sliver of trims mixed
		// in exercises the invalidate path outside Write.
		{name: "hotcold", geo: smallGeo(), dw: 4, write: func(f *FTL, rng *rand.Rand) error {
			var lpn nand.LPN
			if rng.Intn(10) < 9 {
				lpn = nand.LPN(rng.Intn(f.ExportedPages() / 10))
			} else {
				lpn = nand.LPN(rng.Intn(f.ExportedPages()))
			}
			if rng.Intn(64) == 0 {
				return f.Trim(lpn)
			}
			return f.Write(UserWrite{LPN: lpn, ReqPages: 1})
		}},
	}
}

func diffPolicies() []struct {
	name string
	make func() VictimPolicy
} {
	return []struct {
		name string
		make func() VictimPolicy
	}{
		{"greedy", func() VictimPolicy { return GreedyPolicy{} }},
		{"adjusted", func() VictimPolicy {
			return &AdjustedGreedyPolicy{
				Thresh:        FixedThreshold(4000),
				IsShortStream: func(stream int) bool { return stream == 0 },
			}
		}},
		// Bounded by age within a bucket only: exercises the skip-and-continue
		// descent.
		{"costbenefit", func() VictimPolicy { return CostBenefitPolicy{} }},
	}
}

// newProfileFTL builds the FTL a profile runs on and fills the drive once.
// hotColdSeparator (ftl_test.go) sends LPNs below split to stream 0 — the
// "short-living" stream AdjustedGreedy discounts.
func newProfileFTL(tb testing.TB, p diffProfile, policy VictimPolicy, mode selectorMode) *FTL {
	tb.Helper()
	f, err := New(DefaultConfig(p.geo), &hotColdSeparator{split: 1}, policy)
	if err != nil {
		tb.Fatal(err)
	}
	f.sep.(*hotColdSeparator).split = nand.LPN(f.ExportedPages() / 10)
	f.setSelectorMode(mode)
	for lpn := 0; lpn < f.ExportedPages(); lpn++ {
		if err := f.Write(UserWrite{LPN: nand.LPN(lpn), ReqPages: 1}); err != nil {
			tb.Fatalf("fill lpn %d: %v", lpn, err)
		}
	}
	return f
}

// runVictimProfile fills the drive and applies overwrites under the given
// mode, returning the victim sequence, the final stats and the FTL.
func runVictimProfile(t *testing.T, p diffProfile, policy VictimPolicy, mode selectorMode) ([]int32, Stats, *FTL) {
	t.Helper()
	f := newProfileFTL(t, p, policy, mode)
	rec := &victimRecorder{}
	f.SetRecorder(rec)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < p.dw*f.ExportedPages(); i++ {
		if err := p.write(f, rng); err != nil {
			t.Fatalf("%s op %d: %v", p.name, i, err)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("%s invariants: %v", p.name, err)
	}
	return rec.victims, f.Stats(), f
}

// requireSameRun fails unless two runs collected the same victims in the same
// order and ended with the same statistics.
func requireSameRun(t *testing.T, what string, scanV, gotV []int32, scanS, gotS Stats) {
	t.Helper()
	for i := 0; i < len(scanV) && i < len(gotV); i++ {
		if scanV[i] != gotV[i] {
			t.Fatalf("victim %d diverges: scan=%d %s=%d", i, scanV[i], what, gotV[i])
		}
	}
	if len(scanV) != len(gotV) {
		t.Fatalf("victim count diverges: scan=%d %s=%d", len(scanV), what, len(gotV))
	}
	if scanS != gotS {
		t.Errorf("stats diverge:\nscan: %+v\n%s: %+v", scanS, what, gotS)
	}
}

// scoreCounter is Cost-Benefit with a count of Score calls: what picks cost.
type scoreCounter struct {
	CostBenefitPolicy
	scored int
}

func (c *scoreCounter) Score(sb SBView, clock uint64) float64 {
	c.scored++
	return c.CostBenefitPolicy.Score(sb, clock)
}

// TestVictimSelectorDifferential drives the scan and indexed selectors over
// the same workloads and requires byte-identical victim sequences and final
// statistics — the guarantee that lets phftl wa results stay reproducible
// whatever the index prunes. Cross-check mode additionally panics inside the
// FTL on the first divergent selection, pinpointing the clock if the two
// ever disagree.
func TestVictimSelectorDifferential(t *testing.T) {
	for _, p := range diffProfiles() {
		for _, pol := range diffPolicies() {
			t.Run(p.name+"/"+pol.name, func(t *testing.T) {
				scanV, scanS, _ := runVictimProfile(t, p, pol.make(), selScan)
				idxV, idxS, _ := runVictimProfile(t, p, pol.make(), selIndexed)
				crossV, crossS, _ := runVictimProfile(t, p, pol.make(), selCrossCheck)
				if len(scanV) == 0 {
					t.Fatal("workload triggered no GC; differential is vacuous")
				}
				requireSameRun(t, "indexed", scanV, idxV, scanS, idxS)
				requireSameRun(t, "cross-check", scanV, crossV, scanS, crossS)
			})
		}
	}
	// Cost-Benefit again where pruning matters, and there the index must also
	// do what it is for: score under a tenth of the closed superblocks per
	// pick (an unpruned descent scores every one that has an invalid page).
	t.Run(ageSkewed.name+"/costbenefit", func(t *testing.T) {
		scanV, scanS, _ := runVictimProfile(t, ageSkewed, CostBenefitPolicy{}, selScan)
		pol := &scoreCounter{}
		idxV, idxS, f := runVictimProfile(t, ageSkewed, pol, selIndexed)
		requireSameRun(t, "indexed", scanV, idxV, scanS, idxS)
		picks, closed := len(idxV)+int(idxS.GCFutile), 0
		for id := range f.sbs {
			if f.sbs[id].state == SBClosed {
				closed++
			}
		}
		if picks == 0 {
			t.Fatal("workload triggered no GC; differential is vacuous")
		}
		t.Logf("%d picks, %.1f of %d closed superblocks scored per pick", picks, float64(pol.scored)/float64(picks), closed)
		if pol.scored*10 >= picks*closed {
			t.Errorf("indexed Cost-Benefit scored %d superblocks over %d picks with %d closed: not under 10%%", pol.scored, picks, closed)
		}
	})
}

// TestVictimIndexMaintenance checks the incremental index — bucket membership
// and the minClose bounds — against ground truth after randomized
// close/invalidate/trim/collect churn (CheckInvariants includes
// checkVictimIndex). Cost-Benefit picks old sparse victims, so buckets empty
// and refill at every invalid count, not just the top one.
func TestVictimIndexMaintenance(t *testing.T) {
	for _, pol := range diffPolicies() {
		t.Run(pol.name, func(t *testing.T) {
			f, err := New(DefaultConfig(smallGeo()), NewBaseSeparator(), pol.make())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for lpn := 0; lpn < f.ExportedPages(); lpn++ {
				if err := f.Write(UserWrite{LPN: nand.LPN(lpn), ReqPages: 1}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2*f.ExportedPages(); i++ {
				lpn := nand.LPN(rng.Intn(f.ExportedPages()))
				if rng.Intn(32) == 0 {
					if err := f.Trim(lpn); err != nil {
						t.Fatal(err)
					}
				} else if err := f.Write(UserWrite{LPN: lpn, ReqPages: 1}); err != nil {
					t.Fatal(err)
				}
				if i%1024 == 0 {
					if err := f.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVictimIndexMinCloseViolationDetected makes sure the invariant check
// can fail: a bound above a member's close clock, or one left on an empty
// bucket, is reported.
func TestVictimIndexMinCloseViolationDetected(t *testing.T) {
	f := newProfileFTL(t, diffProfiles()[0], CostBenefitPolicy{}, selIndexed)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	vi := &f.vidx
	full, empty := -1, -1
	for b, head := range vi.heads {
		if head >= 0 {
			full = b
		} else {
			empty = b
		}
	}
	if full < 0 || empty < 0 {
		t.Fatalf("need one non-empty and one empty bucket, have %d and %d", full, empty)
	}
	saved := vi.minClose[full]
	vi.minClose[full] = f.clock + 1
	if err := f.checkVictimIndex(); err == nil {
		t.Error("bound above every member's close clock not reported")
	}
	vi.minClose[full] = saved
	vi.minClose[empty] = 0
	if err := f.checkVictimIndex(); err == nil {
		t.Error("bound left on an empty bucket not reported")
	}
}

// BenchmarkSelectVictim times one pick on a drive in steady state: Greedy on
// the small geometry under the historical names, Cost-Benefit on the large
// one, each against the reference scan.
func BenchmarkSelectVictim(b *testing.B) {
	uniform := diffProfiles()[0]
	for _, bc := range []struct {
		prefix string
		p      diffProfile
		policy VictimPolicy
	}{
		{"", uniform, GreedyPolicy{}},
		{"costbenefit/", ageSkewed, CostBenefitPolicy{}},
	} {
		for _, mode := range []struct {
			name string
			mode selectorMode
		}{{"scan", selScan}, {"indexed", selIndexed}} {
			b.Run(bc.prefix+mode.name, func(b *testing.B) {
				f := newProfileFTL(b, bc.p, bc.policy, mode.mode)
				rng := rand.New(rand.NewSource(11))
				for i := 0; i < 2*f.ExportedPages(); i++ {
					if err := bc.p.write(f, rng); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if f.selectVictim() < 0 {
						b.Fatal("no victim")
					}
				}
			})
		}
	}
}
