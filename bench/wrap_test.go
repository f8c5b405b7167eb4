package main

import (
	"testing"

	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/workload"
)

// replayTiny builds a cell over a tiny drive, traced or not, and replays 3
// drive writes of the trim-bearing #52T stream through it with the tracer
// timing from the first op, so every wrapper path runs.
func replayTiny(t *testing.T, scheme sim.Scheme, traced bool) (*sim.Instance, *tracer) {
	t.Helper()
	p, err := profileFor("#52T", 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, tr, err := buildCell(scheme, sim.GeometryForDrive(p.ExportedPages, p.PageSize), traced)
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		tr.start()
	}
	src := newSource(p, 3*p.ExportedPages, tr, nil)
	if err := in.ReplayStream(src, p.PageSize); err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		tr.stop()
	}
	in.Finish()
	return in, tr
}

// TestWrappersAreTransparent: for all four schemes the traced build behaves
// exactly like sim.Build — same FTL and device statistics, same classifier
// outcome — and TrimAware survives the wrapping exactly where the scheme has
// it.
func TestWrappersAreTransparent(t *testing.T) {
	for _, scheme := range sim.Schemes() {
		t.Run(string(scheme), func(t *testing.T) {
			plain, _ := replayTiny(t, scheme, false)
			wrapped, tr := replayTiny(t, scheme, true)

			if a, b := plain.FTL.Stats(), wrapped.FTL.Stats(); a != b {
				t.Errorf("FTL stats differ:\n plain   %+v\n wrapped %+v", a, b)
			}
			if a, b := plain.FTL.Device().Stats(), wrapped.FTL.Device().Stats(); a != b {
				t.Errorf("device stats differ: %+v vs %+v", a, b)
			}
			if plain.PHFTL != nil {
				if a, b := *plain.PHFTL.Confusion(), *wrapped.PHFTL.Confusion(); a != b {
					t.Errorf("confusion differs: %+v vs %+v", a, b)
				}
				if a, b := plain.PHFTL.MetaStats(), wrapped.PHFTL.MetaStats(); a != b {
					t.Errorf("meta stats differ: %+v vs %+v", a, b)
				}
			}
			var res runResult
			checkInstance(&res, wrapped)
			spans, _ := mergeTracers([]*tracer{tr})
			checkSpans(&res, spans)
			for _, f := range res.Failures {
				t.Error(f)
			}

			_, plainTrim := plain.FTL.Separator().(ftl.TrimAware)
			_, wrappedTrim := wrapped.FTL.Separator().(ftl.TrimAware)
			if plainTrim != wrappedTrim {
				t.Errorf("TrimAware: scheme %v, wrapper %v", plainTrim, wrappedTrim)
			}
			st := wrapped.FTL.Stats()
			if st.Trims == 0 {
				t.Fatal("the #52T stream trimmed nothing; the test exercises no trim path")
			}
			if got := tr.agg[spTrim].Count; wrappedTrim && got != st.Trims {
				t.Errorf("OnTrim forwarded %d times, FTL trimmed %d mapped pages", got, st.Trims)
			}
			if got := tr.agg[spPlaceUser].Count + tr.agg[spWindowEnd].Count; got != st.UserPageWrites {
				t.Errorf("PlaceUserWrite forwarded %d times for %d user writes", got, st.UserPageWrites)
			}
			if tr.programs != st.FlashPageWrites() || tr.erases != wrapped.FTL.Device().Stats().Erases {
				t.Errorf("op hook saw %d programs / %d erases, device %d / %d",
					tr.programs, tr.erases, st.FlashPageWrites(), wrapped.FTL.Device().Stats().Erases)
			}
			if got := tr.agg[spGCPass].Count; got != st.GCVictims {
				t.Errorf("%d gc-pass spans for %d victims", got, st.GCVictims)
			}
			if root := tr.agg[spReplay]; tr.gcPickNS+tr.gcCopyNS+tr.gcEraseNS != tr.agg[spGCPass].TotalNS || root.SelfNS <= 0 {
				t.Errorf("gc phases %d+%d+%d != gc pass total %d (root self %d)",
					tr.gcPickNS, tr.gcCopyNS, tr.gcEraseNS, tr.agg[spGCPass].TotalNS, root.SelfNS)
			}
		})
	}
}

// TestSeedPlumbing: -seed offsets only the workload generator. Seed 1 is the
// stock profile to the byte, seed 2 differs in Profile.Seed and nothing
// else, and the program under test never sees the seed: buildCell takes none,
// so PHFTL's own model seed stays core.DefaultOptions().Seed.
func TestSeedPlumbing(t *testing.T) {
	stock, ok := workload.ProfileByID("#144")
	if !ok {
		t.Fatal("no #144 profile")
	}
	p1, err := profileFor("#144", stock.ExportedPages, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != stock {
		t.Errorf("seed 1 is not the stock profile:\n %+v\n %+v", p1, stock)
	}
	p2, _ := profileFor("#144", stock.ExportedPages, 2)
	if p2.Seed != stock.Seed+1 {
		t.Errorf("seed 2 gives Profile.Seed %d, want %d", p2.Seed, stock.Seed+1)
	}
	p2.Seed = stock.Seed
	if p2 != stock {
		t.Errorf("seed 2 changed more than Profile.Seed: %+v", p2)
	}

	a, b, c := p1.NewGenerator().Records(4096), stock.NewGenerator().Records(4096), mustProfile(t, 2).NewGenerator().Records(4096)
	if len(a) != len(b) {
		t.Fatalf("seed 1 stream has %d records, stock %d", len(a), len(b))
	}
	differs := len(a) != len(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 record %d = %+v, stock %+v", i, a[i], b[i])
		}
		if i < len(c) && a[i] != c[i] {
			differs = true
		}
	}
	if !differs {
		t.Error("seed 2 generated the same stream as seed 1")
	}

	if _, err := profileFor("#nope", 1, 1); err == nil {
		t.Error("unknown trace id accepted")
	}
}

func mustProfile(t *testing.T, seed int64) workload.Profile {
	t.Helper()
	p, err := profileFor("#144", 32768, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
