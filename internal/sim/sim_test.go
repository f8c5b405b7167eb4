package sim

import (
	"bytes"
	"io"
	"testing"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

func smallProfile() workload.Profile {
	// #144 keeps enough uniform cold churn that even short runs produce
	// nonzero WA for every scheme.
	p, ok := workload.ProfileByID("#144")
	if !ok {
		panic("missing profile")
	}
	p.ExportedPages = 4096
	return p
}

func TestGeometryForDriveAcceptsAllSchemes(t *testing.T) {
	for _, pages := range []int{4096, 16384} {
		geo := GeometryForDrive(pages, 16384)
		for _, s := range Schemes() {
			in, err := Build(s, geo, nil)
			if err != nil {
				t.Fatalf("%s at %d pages: %v", s, pages, err)
			}
			if in.FTL.ExportedPages() < pages {
				t.Errorf("%s: exported %d < requested %d", s, in.FTL.ExportedPages(), pages)
			}
		}
	}
}

func TestBuildUnknownScheme(t *testing.T) {
	geo := GeometryForDrive(4096, 16384)
	if _, err := Build("Nope", geo, nil); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunProfileAllSchemes(t *testing.T) {
	p := smallProfile()
	var was []float64
	for _, s := range Schemes() {
		res, err := RunProfile(p, s, 3, nil)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Scheme != s || res.Profile != p.ID {
			t.Errorf("result identity: %+v", res)
		}
		if res.WA < 0 {
			t.Errorf("%s: negative WA %v", s, res.WA)
		}
		if res.FTLStats.UserPageWrites == 0 {
			t.Errorf("%s: no user writes recorded", s)
		}
		was = append(was, res.DataWA)
	}
	// Figure 5 ordering on this periodic profile: Base worst, PHFTL best.
	base, phftl := was[0], was[3]
	if phftl >= base {
		t.Errorf("PHFTL data-WA %.3f not below Base %.3f", phftl, base)
	}
}

func TestRunProfilePHFTLResultFields(t *testing.T) {
	p := smallProfile()
	res, err := RunProfile(p, SchemePHFTL, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Confusion == nil || res.Confusion.Total() == 0 {
		t.Fatal("missing classifier results")
	}
	if res.Threshold <= 0 {
		t.Errorf("threshold = %v", res.Threshold)
	}
	if res.MetaStats.CacheHits+res.MetaStats.CacheMisses+res.MetaStats.OpenHits == 0 {
		t.Error("no metadata retrievals recorded")
	}
}

// Two independent replays of one profile agree to the byte: the scalar
// result and the whole sample series as the CSV sink writes it, which is
// what make golden-check compares against testdata/golden.
func TestRunProfileDeterminism(t *testing.T) {
	p := smallProfile()
	run := func() (Result, []byte) {
		in, err := Build(SchemePHFTL, GeometryForDrive(p.ExportedPages, p.PageSize), nil)
		if err != nil {
			t.Fatal(err)
		}
		Observe(in, ObserveConfig{})
		res, err := RunOn(in, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := obs.WriteSamplesCSV(&csv, in.Obs.Sampler.Series()); err != nil {
			t.Fatal(err)
		}
		return res, csv.Bytes()
	}
	a, csvA := run()
	b, csvB := run()
	t.Run("result", func(t *testing.T) {
		if a.WA != b.WA || a.Confusion.Total() != b.Confusion.Total() {
			t.Fatalf("non-deterministic: %v/%d vs %v/%d", a.WA, a.Confusion.Total(), b.WA, b.Confusion.Total())
		}
	})
	t.Run("samples_csv", func(t *testing.T) {
		if !bytes.Equal(csvA, csvB) {
			t.Fatal("two replays wrote different sample CSVs")
		}
	})
}

// TestBuild drives the one constructor over every scheme with the default
// spec, a 15% OP and an injected device, plus PHFTL under each victim
// policy: the FTL exports what its config derives, an injected device sees
// the programs and charges host reads, and the policy is the one asked for.
func TestBuild(t *testing.T) {
	geo := GeometryForDrive(4096, 16384)
	geoOP := GeometryForDriveOP(4096, 16384, 0.15)
	type row struct {
		name       string
		scheme     Scheme
		geo        nand.Geometry
		spec       *Spec
		programs   *uint64 // counted by the injected device's op hook
		wantPolicy string
	}
	var rows []row
	for _, s := range Schemes() {
		pol := "CostBenefit"
		if s == SchemePHFTL {
			pol = "AdjustedGreedy"
		}
		var programs uint64
		dev, err := nand.NewDevice(geo)
		if err != nil {
			t.Fatal(err)
		}
		dev.SetOpHook(func(kind nand.OpKind, _ nand.PPN) {
			if kind == nand.OpProgram {
				programs++
			}
		})
		rows = append(rows,
			row{string(s) + "/nil", s, geo, nil, nil, pol},
			row{string(s) + "/op0.15", s, geoOP, &Spec{OP: 0.15}, nil, pol},
			row{string(s) + "/device", s, geo, &Spec{Device: dev}, &programs, pol})
	}
	for _, pol := range []struct{ spec, name string }{
		{"adjusted", "AdjustedGreedy"}, {"greedy", "Greedy"}, {"costbenefit", "CostBenefit"},
	} {
		rows = append(rows, row{"PHFTL/" + pol.spec, SchemePHFTL, geo, &Spec{Policy: pol.spec}, nil, pol.name})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			in, err := Build(r.scheme, r.geo, r.spec)
			if err != nil {
				t.Fatal(err)
			}
			if (in.PHFTL != nil) != (r.scheme == SchemePHFTL) {
				t.Fatalf("PHFTL instance = %v for %s", in.PHFTL, r.scheme)
			}
			want := ftl.DefaultConfig(r.geo)
			if r.spec != nil && r.spec.OP > 0 {
				want.OPRatio = r.spec.OP
			}
			if r.scheme == SchemePHFTL {
				_, want.MetaPagesPerSB, _ = core.MetaLayout(r.geo.PagesPerSuperblock(), r.geo.PageSize)
			}
			cfg := in.FTL.Config()
			if cfg.OPRatio != want.OPRatio || cfg.MetaPagesPerSB != want.MetaPagesPerSB {
				t.Errorf("config OP %v meta %d, want %v and %d", cfg.OPRatio, cfg.MetaPagesPerSB, want.OPRatio, want.MetaPagesPerSB)
			}
			if got := in.FTL.ExportedPages(); got != want.ExportedPages() || got != cfg.ExportedPages() {
				t.Errorf("exported %d, want %d (config derives %d)", got, want.ExportedPages(), cfg.ExportedPages())
			}
			injected := r.programs != nil
			if cfg.CountHostReads != injected {
				t.Errorf("CountHostReads = %v with injected device %v", cfg.CountHostReads, injected)
			}
			if got := in.FTL.Policy().Name(); got != r.wantPolicy {
				t.Errorf("policy %s, want %s", got, r.wantPolicy)
			}
			for lpn := 0; lpn < 64; lpn++ {
				if err := in.FTL.Write(ftl.UserWrite{LPN: nand.LPN(lpn), ReqPages: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if err := in.FTL.Read(0, 1); err != nil {
				t.Fatal(err)
			}
			dev := in.FTL.Device().Stats()
			if injected && (*r.programs == 0 || *r.programs != dev.Programs) {
				t.Errorf("op hook saw %d programs, device made %d", *r.programs, dev.Programs)
			}
			if charged := dev.Reads > 0; charged != injected {
				t.Errorf("host read charged as a flash read: %v, with injected device %v", charged, injected)
			}
		})
	}
	for _, c := range []struct {
		scheme Scheme
		spec   *Spec
	}{
		{"Nope", &Spec{Policy: "greedy"}},
		{SchemePHFTL, &Spec{Policy: "nope"}},
		{SchemeBase, &Spec{Policy: "nope"}},
		{SchemeBase, &Spec{Policy: "adjusted"}},
		{SchemeSepBIT, &Spec{Policy: "adjusted"}},
	} {
		if _, err := Build(c.scheme, geo, c.spec); err == nil {
			t.Errorf("Build(%s, %+v) accepted", c.scheme, *c.spec)
		}
	}
}

// The victim policy must reach the interval-WA curve, not only end-of-run
// scalars: this is the kind of change the golden baselines exist to catch.
// Early in a run the spare pool is still draining and both policies pick
// the same near-fully-invalid victims; #326 at 4 drive writes is the
// smallest probed trace×depth where interval_wa itself separates.
func TestGCPolicyPerturbationFlagged(t *testing.T) {
	const id, dw = "#326", 4
	p, _ := workload.ProfileByID(id)
	series := func(policy string) []obs.Sample {
		in, err := Build(SchemePHFTL, GeometryForDrive(p.ExportedPages, p.PageSize), &Spec{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		Observe(in, ObserveConfig{})
		if _, err := RunOn(in, p, dw); err != nil {
			t.Fatal(err)
		}
		return in.Obs.Sampler.Series()
	}
	adj, greedy := series("adjusted"), series("greedy")
	if len(adj) != len(greedy) {
		t.Fatalf("sample counts differ: %d vs %d", len(adj), len(greedy))
	}
	for i := range adj {
		if adj[i].Clock != greedy[i].Clock {
			t.Fatalf("sample %d: clocks %d vs %d", i, adj[i].Clock, greedy[i].Clock)
		}
		if adj[i].Clock > 0 && adj[i].IntervalWA != greedy[i].IntervalWA {
			return
		}
	}
	t.Fatalf("Adjusted and Greedy victim policies produced the same interval-WA curve over %d samples", len(adj))
}

func TestSchemesOrder(t *testing.T) {
	s := Schemes()
	if len(s) != 4 || s[0] != SchemeBase || s[3] != SchemePHFTL {
		t.Errorf("schemes = %v", s)
	}
}

// sliceSource adapts a record slice to trace.RecordSource.
type sliceSource struct {
	recs []trace.Record
	i    int
}

func (s *sliceSource) Next() (trace.Record, error) {
	if s.i >= len(s.recs) {
		return trace.Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// TestReplayStreamMatchesSliceReplay is the streaming-equivalence acceptance
// criterion: replaying the same records through ReplayStream must leave the
// FTL in a state with identical statistics to the slice-based Expand+Replay
// path.
func TestReplayStreamMatchesSliceReplay(t *testing.T) {
	p := smallProfile()
	p.TrimFrac, p.TrimRunPages, p.SeqTrimLagPages = 0.05, 32, 128
	geo := GeometryForDrive(p.ExportedPages, p.PageSize)
	records := p.NewGenerator().Records(3 * p.ExportedPages)

	slice, err := Build(SchemeBase, geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := trace.Expand(records, p.PageSize, slice.FTL.ExportedPages())
	if err := slice.Replay(ops); err != nil {
		t.Fatal(err)
	}

	stream, err := Build(SchemeBase, geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.ReplayStream(&sliceSource{recs: records}, p.PageSize); err != nil {
		t.Fatal(err)
	}

	if a, b := slice.FTL.Stats(), stream.FTL.Stats(); a != b {
		t.Fatalf("stats diverge:\nslice:  %+v\nstream: %+v", a, b)
	}
}

// TestReplayRoutesTrimsAllSchemes runs a trim twin through every scheme and
// checks Stats.Trims matches the discards that hit mapped pages, with clean
// invariants.
func TestReplayRoutesTrimsAllSchemes(t *testing.T) {
	p := smallProfile()
	p.TrimFrac, p.TrimRunPages, p.SeqTrimLagPages = 0.06, 48, 128
	for _, s := range Schemes() {
		res, err := RunProfile(p, s, 3, nil)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.FTLStats.Trims == 0 {
			t.Errorf("%s: no trims reached the FTL", s)
		}
	}
}

// TestTrimLowersWA replays a trim twin and its no-trim base on the Base
// scheme: discarding dead data before GC sees it must lower measured WA (the
// whole point of TRIM).
func TestTrimLowersWA(t *testing.T) {
	p := smallProfile()
	twin := workload.WithTrim(p, p.ID+"T", 0.06, 48, 128)
	base, err := RunProfile(p, SchemeBase, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	trimmed, err := RunProfile(twin, SchemeBase, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.WA >= base.WA {
		t.Errorf("trim twin WA %.4f not below base WA %.4f", trimmed.WA, base.WA)
	}
}

// TestOPSweepMonotone checks the acceptance criterion for -op-sweep: Base
// WA must decrease monotonically as the spare factor grows (Frankie et al.'s
// closed-form curves are strictly decreasing in OP).
func TestOPSweepMonotone(t *testing.T) {
	p := smallProfile()
	prev := -1.0
	for i, op := range []float64{0.07, 0.15, 0.28} {
		geo := GeometryForDriveOP(p.ExportedPages, p.PageSize, op)
		in, err := Build(SchemeBase, geo, &Spec{OP: op})
		if err != nil {
			t.Fatalf("op=%v: %v", op, err)
		}
		res, err := RunOn(in, p, 4)
		if err != nil {
			t.Fatalf("op=%v: %v", op, err)
		}
		if i > 0 && res.WA >= prev {
			t.Errorf("WA(op=%v) = %.4f, not below WA at previous OP %.4f", op, res.WA, prev)
		}
		prev = res.WA
	}
}

// TestGeometryDefaultOPUnchanged pins that the OP-parameterized sizing at 7%
// reproduces the historical geometry bit-for-bit (golden baselines depend on
// it).
func TestGeometryDefaultOPUnchanged(t *testing.T) {
	for _, pages := range []int{4096, 12288, 16384, 20480, 32768} {
		a := GeometryForDrive(pages, 16384)
		b := GeometryForDriveOP(pages, 16384, 0.07)
		if a != b {
			t.Fatalf("%d pages: %+v vs %+v", pages, a, b)
		}
	}
}
