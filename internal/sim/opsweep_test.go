package sim

import (
	"testing"

	"github.com/phftl/phftl/internal/workload"
)

// TestUniformClosedForm pins the Base scheme's greedy-GC behaviour on
// uniform-random traffic against the closed-form overprovisioning
// approximation of Frankie et al., WA = (1-Sf)/(2*Sf) at effective spare
// factor Sf (stated in this repo's extra-flash-writes-per-user-write
// convention). The approximation is not exact for greedy victim selection —
// it overshoots at generous spare and undershoots at tight spare — so the
// test asserts the measured curve stays within a bracket of the prediction
// and, independently, that it decreases monotonically in Sf. A GC or
// allocation change that moves uniform-random WA outside the analytic
// corridor fails here before it can silently shift every skewed-trace
// result.
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
