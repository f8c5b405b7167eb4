package sim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

// TestUniformClosedForm pins the Base scheme's GC on uniform-random traffic
// against the closed-form overprovisioning approximation of Frankie et al.,
// WA = (1-Sf)/(2*Sf) at effective spare factor Sf (stated in this repo's
// extra-flash-writes-per-user-write convention), and, independently, checks
// that WA decreases monotonically in Sf. Base runs under Build's default
// victim policy, Cost-Benefit, not Greedy; under uniform traffic the two read
// within a few percent. The [0.5, 1.7] band holds only because WA is
// cumulative from an empty drive over 8 drive writes: the first drive write
// is a GC-free fill that dilutes the total. The steady state sits outside it
// (2.7x the closed form at 7% OP, because the closed form ignores the
// GCWatermark reserve); TestUniformSteadyState holds the steady state to an
// exact oracle instead.
func TestUniformClosedForm(t *testing.T) {
	// All skew knobs zero: every write is a single-page uniform-random
	// update over the full exported LPN space, the regime the closed form
	// models.
	p := workload.Profile{
		ID: "#uniform", DriveClass: "probe",
		ExportedPages: 65536, PageSize: 4096,
		InterArrivalUS: 100, ReqPagesMax: 1, Seed: 1,
	}
	prevWA := -1.0
	for _, op := range []float64{0.07, 0.15, 0.28} {
		geo := GeometryForDriveOP(p.ExportedPages, p.PageSize, op)
		in, err := Build(SchemeBase, geo, &Spec{OP: op})
		if err != nil {
			t.Fatalf("op=%v: %v", op, err)
		}
		res, err := RunOn(in, p, 8)
		if err != nil {
			t.Fatalf("op=%v: %v", op, err)
		}
		totalData := float64(geo.Superblocks() * in.FTL.DataPagesPerSB())
		sf := (totalData - float64(p.ExportedPages)) / totalData
		pred := (1 - sf) / (2 * sf)
		ratio := res.WA / pred
		t.Logf("op=%.2f sf=%.4f measured=%.4f pred=%.4f ratio=%.3f", op, sf, res.WA, pred, ratio)
		if ratio < 0.5 || ratio > 1.7 {
			t.Errorf("op=%v: measured WA %.4f vs closed form %.4f (ratio %.3f) outside [0.5, 1.7]",
				op, res.WA, pred, ratio)
		}
		if prevWA >= 0 && res.WA >= prevWA {
			t.Errorf("op=%v: WA %.4f did not decrease from %.4f at the previous spare factor",
				op, res.WA, prevWA)
		}
		prevWA = res.WA
	}
}

// fifoPolicy collects the superblock that closed first: its score is the
// age clock − CloseClock. Under uniform writes a FIFO victim's valid
// fraction has an exact fixed point, which TestUniformSteadyState holds the
// GC to.
type fifoPolicy struct{}

func (fifoPolicy) Name() string { return "FIFO" }

func (fifoPolicy) Score(sb ftl.SBView, clock uint64) float64 { return float64(clock - sb.CloseClock) }

// MaxAgedScore lets the victim index skip every bucket whose oldest
// superblock is younger than the best candidate so far.
func (fifoPolicy) MaxAgedScore(_, _ int, maxAge uint64) float64 { return float64(maxAge) }

// fifoFixedPoint returns the steady-state WA of FIFO collection under
// uniform single-page writes over E pages, where the log of closed
// superblocks holds αE data pages. A victim's valid fraction x fixes the mix
// of the log: of the αE pages written between a page's write and its
// superblock's collection, αE(1−x) are user writes, each of which overwrites
// the page with probability 1/E. So x = e^(−α(1−x)), and each reclaimed page
// costs x/(1−x) copies. Iterating from 0 reaches the root below the trivial
// x = 1.
func fifoFixedPoint(alpha float64) float64 {
	x := 0.0
	for i := 0; i < 10000; i++ {
		x = math.Exp(-alpha * (1 - x))
	}
	return x / (1 - x)
}

// uniformInterval replays drive writes 1–16 of p on in as a warm-up, then
// drive writes 17–24, and returns the interval WA over the second span.
func uniformInterval(t *testing.T, in *Instance, p workload.Profile) float64 {
	t.Helper()
	src := &profileSource{ctx: context.Background(), gen: p.NewGenerator(), target: 16 * p.ExportedPages}
	e := trace.NewExpander(p.PageSize, p.ExportedPages)
	if err := in.replay(src, e); err != nil {
		t.Fatal(err)
	}
	before := in.FTL.Stats()
	src.target = 24 * p.ExportedPages
	if err := in.replay(src, e); err != nil {
		t.Fatal(err)
	}
	after := in.FTL.Stats()
	return metrics.WriteAmp(after.FlashPageWrites()-before.FlashPageWrites(), after.UserPageWrites-before.UserPageWrites)
}

// checkConservation holds a finished run to two identities: every NAND
// program is a user, GC or meta write, and the per-die erase counts sum to
// the device's erase total.
func checkConservation(t *testing.T, name string, in *Instance) {
	t.Helper()
	st, dev := in.FTL.Stats(), in.FTL.Device()
	if got := dev.Stats().Programs; got != st.FlashPageWrites() {
		t.Errorf("%s: %d NAND programs, want user+GC+meta = %d", name, got, st.FlashPageWrites())
	}
	var erases uint64
	for die := 0; die < dev.Geometry().Dies; die++ {
		n, err := dev.DieEraseCount(die)
		if err != nil {
			t.Fatal(err)
		}
		erases += n
	}
	if erases != dev.Stats().Erases {
		t.Errorf("%s: per-die erases sum to %d, device counts %d", name, erases, dev.Stats().Erases)
	}
}

// TestUniformSteadyState holds the GC to an exact steady-state oracle. On
// the uniform profile of TestUniformClosedForm, FIFO collection's interval
// WA over drive writes 17–24 must lie within 2% of fifoFixedPoint at
// α = (data pages − the GCWatermark reserve) / the profile's exported pages:
// GC keeps GCWatermark of the superblocks free, so only the rest holds the
// pages a victim waits behind. Frankie et al.'s closed form leaves that reserve out,
// which is why it undershoots at 7% OP. Greedy, which picks the emptiest
// victim instead of the oldest, must read no more than FIFO at each point.
func TestUniformSteadyState(t *testing.T) {
	p := workload.Profile{
		ID: "#uniform", DriveClass: "probe",
		ExportedPages: 65536, PageSize: 4096,
		InterArrivalUS: 100, ReqPagesMax: 1, Seed: 1,
	}
	for _, op := range []float64{0.07, 0.15, 0.28} {
		t.Run(fmt.Sprintf("op=%.2f", op), func(t *testing.T) {
			t.Parallel()
			geo := GeometryForDriveOP(p.ExportedPages, p.PageSize, op)
			greedy, err := Build(SchemeBase, geo, &Spec{OP: op, Policy: "greedy"})
			if err != nil {
				t.Fatal(err)
			}
			cfg := ftl.DefaultConfig(geo)
			cfg.OPRatio = op
			f, err := ftl.New(cfg, ftl.NewBaseSeparator(), fifoPolicy{})
			if err != nil {
				t.Fatal(err)
			}
			fifo := &Instance{Scheme: SchemeBase, FTL: f}

			// GC runs whenever fewer than GCWatermark of the superblocks
			// are free, so it keeps a whole number of them in reserve.
			reserve := int(math.Ceil(cfg.GCWatermark * float64(geo.Superblocks())))
			alpha := float64((geo.Superblocks()-reserve)*f.DataPagesPerSB()) / float64(p.ExportedPages)
			pred := fifoFixedPoint(alpha)
			waFIFO := uniformInterval(t, fifo, p)
			waGreedy := uniformInterval(t, greedy, p)
			t.Logf("α=%.4f fixed point %.4f, FIFO %.4f (%.4f), Greedy %.4f",
				alpha, pred, waFIFO, waFIFO/pred, waGreedy)
			if math.Abs(waFIFO/pred-1) > 0.02 {
				t.Errorf("FIFO interval WA %.4f is %.2f%% from the fixed point %.4f",
					waFIFO, (waFIFO/pred-1)*100, pred)
			}
			if waGreedy > waFIFO {
				t.Errorf("Greedy interval WA %.4f above FIFO's %.4f", waGreedy, waFIFO)
			}
			checkConservation(t, "FIFO", fifo)
			checkConservation(t, "Greedy", greedy)
		})
	}
}
