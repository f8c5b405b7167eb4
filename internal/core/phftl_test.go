package core

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/ml"
	"github.com/phftl/phftl/internal/nand"
)

func phftlGeo() nand.Geometry {
	// 32-page superblocks (31 data + 1 meta with 4 KiB pages), 240
	// superblocks: enough spare for PHFTL's 7-stream GC reserve at 7% OP.
	return nand.Geometry{PageSize: 4096, OOBSize: 64, PagesPerBlock: 16, BlocksPerDie: 240, Dies: 2}
}

// runHotCold drives a strongly bimodal workload shaped like the cloud
// traces the paper evaluates on: 90% of writes cycle (with jitter) through a
// hot set of 1% of the LPN space — near-periodic updates with dispersed but
// predictable lifetimes — while 10% land uniformly on the cold remainder.
func runHotCold(t *testing.T, f *ftl.FTL, p *PHFTL, driveWrites int, seed int64) {
	t.Helper()
	exported := f.ExportedPages()
	hot := exported / 100
	rng := rand.New(rand.NewSource(seed))
	for lpn := 0; lpn < exported; lpn++ {
		if err := f.Write(ftl.UserWrite{LPN: nand.LPN(lpn), ReqPages: 1}); err != nil {
			t.Fatal(err)
		}
	}
	h := 0
	for i := 0; i < driveWrites*exported; i++ {
		var lpn int
		if rng.Float64() < 0.9 {
			lpn = h % hot
			h++
			if rng.Float64() < 0.15 {
				h += rng.Intn(5) // lifetime dispersion, still periodic
			}
		} else {
			lpn = hot + rng.Intn(exported-hot)
		}
		if err := f.Write(ftl.UserWrite{LPN: nand.LPN(lpn), ReqPages: 1}); err != nil {
			t.Fatal(err)
		}
		if rng.Float64() < 0.2 {
			_ = f.Read(nand.LPN(rng.Intn(exported)), 1)
		}
	}
	if p != nil {
		if err := p.Err(); err != nil {
			t.Fatalf("PHFTL internal error: %v", err)
		}
		p.Finish(f.Clock())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestPHFTLEndToEnd(t *testing.T) {
	f, p, err := Build(phftlGeo(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	runHotCold(t, f, p, 5, 11)

	st := p.Stats()
	if st.Windows < 10 {
		t.Errorf("windows = %d, want >= 10", st.Windows)
	}
	if st.Deploys == 0 {
		t.Fatal("model never deployed")
	}
	if p.Threshold() <= 0 {
		t.Errorf("threshold = %v, want > 0", p.Threshold())
	}
	if st.Predictions == 0 {
		t.Fatal("no predictions recorded")
	}
	// On a strongly bimodal workload the classifier must do far better than
	// chance (the paper reports 81%-99% accuracy on real traces).
	conf := p.Confusion()
	if conf.Total() == 0 {
		t.Fatal("no resolved predictions")
	}
	if acc := conf.Accuracy(); acc < 0.75 {
		t.Errorf("accuracy = %.3f, want >= 0.75 (%s)", acc, conf)
	}
	// The paper's 98%+ metadata hit rate needs spatially local traffic
	// (TestPHFTLMetaLocalityOnSequentialWorkload); random cold traffic only
	// has to keep the cache functional.
	ms := p.MetaStats()
	if ms.CacheHits+ms.CacheMisses > 0 {
		if hr := ms.HitRate(); hr <= 0 {
			t.Errorf("meta cache hit rate = %.4f", hr)
		}
	}
	// Meta pages were written but amount to well under 5% of flash writes.
	fs := f.Stats()
	if fs.MetaPageWrites == 0 {
		t.Error("no meta pages written")
	}
	if frac := float64(fs.MetaPageWrites) / float64(fs.FlashPageWrites()); frac > 0.05 {
		t.Errorf("meta overhead = %.4f of flash writes", frac)
	}
}

func TestPHFTLBeatsBaseOnHotCold(t *testing.T) {
	fBase, err := ftl.New(ftl.DefaultConfig(phftlGeo()), ftl.NewBaseSeparator(), ftl.CostBenefitPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	runHotCold(t, fBase, nil, 5, 11)
	fP, p, err := Build(phftlGeo(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	runHotCold(t, fP, p, 5, 11)
	waBase := fBase.Stats().WA()
	waP := fP.Stats().WA()
	t.Logf("WA base=%.3f phftl=%.3f (classifier %s)", waBase, waP, p.Confusion())
	if waP >= 0.7*waBase {
		t.Fatalf("PHFTL WA %.3f not clearly below Base WA %.3f", waP, waBase)
	}
}

// TestPHFTLMetaLocalityOnSequentialWorkload reproduces the §V-B claim that
// the tiny RAM metadata cache serves 98.2%-99.9% of retrievals: when
// overwrites have spatial locality (here: a circular-log overwrite pattern),
// consecutive pages' metadata share meta pages, so one flash read serves
// many retrievals.
func TestPHFTLMetaLocalityOnSequentialWorkload(t *testing.T) {
	// Hit rate is capped at 1 - metaPages/dataPages per superblock, so this
	// test uses production-shaped superblocks (128 pages: 126 data + 2
	// meta) rather than the miniature ones of the other tests.
	geo := nand.Geometry{PageSize: 4096, OOBSize: 64, PagesPerBlock: 32, BlocksPerDie: 160, Dies: 4}
	f, p, err := Build(geo, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exported := f.ExportedPages()
	for pass := 0; pass < 4; pass++ {
		for lpn := 0; lpn < exported; lpn++ {
			if err := f.Write(ftl.UserWrite{LPN: nand.LPN(lpn), ReqPages: 8, Seq: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	ms := p.MetaStats()
	if ms.CacheHits+ms.CacheMisses == 0 {
		t.Fatal("no flash-backed metadata retrievals")
	}
	if hr := ms.HitRate(); hr < 0.98 {
		t.Fatalf("sequential-workload hit rate = %.4f, want >= 0.98 (paper: 98.2%%-99.9%%)", hr)
	}
}

func TestPHFTLDeterminism(t *testing.T) {
	run := func() (float64, uint64) {
		f, p, err := Build(phftlGeo(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		runHotCold(t, f, p, 2, 33)
		return f.Stats().WA(), p.Confusion().Total()
	}
	wa1, n1 := run()
	wa2, n2 := run()
	if wa1 != wa2 || n1 != n2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", wa1, n1, wa2, n2)
	}
}

func TestPHFTLMetadataSurvivesGC(t *testing.T) {
	f, p, err := Build(phftlGeo(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exported := f.ExportedPages()
	// Write LPN 0 once, then churn everything else until LPN 0's page has
	// been migrated by GC at least once.
	if err := f.Write(ftl.UserWrite{LPN: 0, ReqPages: 1}); err != nil {
		t.Fatal(err)
	}
	for lpn := 1; lpn < exported; lpn++ {
		if err := f.Write(ftl.UserWrite{LPN: nand.LPN(lpn), ReqPages: 1}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 4*exported; i++ {
		if err := f.Write(ftl.UserWrite{LPN: nand.LPN(1 + rng.Intn(exported-1)), ReqPages: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	// LPN 0 was written exactly once (LastWrite = 1); its metadata must
	// have ridden through GC migrations via the OOB copy.
	entry, err := p.meta.Get(f.MappedPPN(0))
	if err != nil {
		t.Fatal(err)
	}
	if entry.LastWrite != 1 {
		t.Fatalf("LPN 0 metadata LastWrite = %d, want 1 (preserved through GC)", entry.LastWrite)
	}
	// And the page itself must have been GC-migrated (it's cold).
	if f.Stats().GCPageWrites == 0 {
		t.Fatal("workload did not trigger GC")
	}
}

func TestPHFTLSeqLen1Ablation(t *testing.T) {
	opts := DefaultOptions()
	opts.SeqLen = 1
	f, p, err := Build(phftlGeo(), opts)
	if err != nil {
		t.Fatal(err)
	}
	runHotCold(t, f, p, 3, 55)
	if p.Stats().Deploys == 0 {
		t.Fatal("seqlen-1 model never deployed")
	}
	if p.Confusion().Total() == 0 {
		t.Fatal("no resolved predictions")
	}
}

func TestPHFTLUnquantizedAblation(t *testing.T) {
	opts := DefaultOptions()
	opts.Quantize = false
	f, p, err := Build(phftlGeo(), opts)
	if err != nil {
		t.Fatal(err)
	}
	runHotCold(t, f, p, 2, 66)
	if p.Stats().Deploys == 0 {
		t.Fatal("float model never deployed")
	}
}

// TestPHFTLDeployMismatchSurfacesErr: a device-side model SyncModel refuses
// to deploy onto is an internal fault. endWindow reports it through Err and
// keeps the model it has, rather than allocating a replacement.
func TestPHFTLDeployMismatchSurfacesErr(t *testing.T) {
	f, p, err := Build(phftlGeo(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	other := ml.NewGRUNet(InputDim, p.opts.Hidden/2, ml.NumClassesDefault, rand.New(rand.NewSource(1)))
	p.deployed = other
	exported := f.ExportedPages()
	rng := rand.New(rand.NewSource(2))
	for i := 0; p.Err() == nil && i < 4*exported; i++ {
		if err := f.Write(ftl.UserWrite{LPN: nand.LPN(rng.Intn(exported / 50)), ReqPages: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), "deployed") {
		t.Fatalf("Err() = %v, want the refused deployment", err)
	}
	if p.deployed != other {
		t.Fatal("endWindow replaced the device-side model")
	}
}

func TestPHFTLOptionValidation(t *testing.T) {
	geo := phftlGeo()
	bad := DefaultOptions()
	bad.Hidden = HiddenBytes + 1
	if _, err := New(geo, 1000, bad); err == nil {
		t.Error("oversized hidden accepted")
	}
	bad = DefaultOptions()
	bad.SeqLen = 0
	if _, err := New(geo, 1000, bad); err == nil {
		t.Error("zero seqlen accepted")
	}
	bad = DefaultOptions()
	bad.WindowFrac = 0
	if _, err := New(geo, 1000, bad); err == nil {
		t.Error("zero window accepted")
	}
	bad = DefaultOptions()
	bad.GCStreams = 0
	if _, err := New(geo, 1000, bad); err == nil {
		t.Error("zero GC streams accepted")
	}
	smallOOB := geo
	smallOOB.OOBSize = EntrySize - 1
	if _, err := New(smallOOB, 1000, DefaultOptions()); err == nil {
		t.Error("undersized OOB accepted")
	}
}

func TestStreamLayout(t *testing.T) {
	p, err := New(phftlGeo(), 1000, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStreams() != 7 {
		t.Errorf("streams = %d, want 7", p.NumStreams())
	}
	if p.StreamGCClass(StreamUserLong) != 0 || p.StreamGCClass(StreamUserShort) != 0 {
		t.Error("user streams must be class 0")
	}
	for k := 1; k <= 5; k++ {
		if got := p.StreamGCClass(StreamGCBase + k - 1); got != k {
			t.Errorf("StreamGCClass(%d) = %d, want %d", StreamGCBase+k-1, got, k)
		}
	}
	if !p.IsShortStream(StreamUserShort) || p.IsShortStream(StreamUserLong) {
		t.Error("IsShortStream wrong")
	}
	if p.Name() != "PHFTL" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestPHFTLModelVariants(t *testing.T) {
	// The design-space models (§III-B): LSTM (16 hidden to fit the 32-byte
	// state slot) and stateless MLP must run end to end.
	for _, mk := range []struct {
		model  string
		hidden int
	}{{"lstm", 16}, {"mlp", 32}} {
		opts := DefaultOptions()
		opts.Model = mk.model
		opts.Hidden = mk.hidden
		f, p, err := Build(phftlGeo(), opts)
		if err != nil {
			t.Fatalf("%s: %v", mk.model, err)
		}
		runHotCold(t, f, p, 2, 77)
		if p.Stats().Deploys == 0 {
			t.Fatalf("%s: never deployed", mk.model)
		}
		if p.Confusion().Total() == 0 {
			t.Fatalf("%s: no resolved predictions", mk.model)
		}
	}
	// An LSTM with 32 hidden units needs 64 state bytes: rejected.
	opts := DefaultOptions()
	opts.Model = "lstm"
	if _, err := New(phftlGeo(), 1000, opts); err == nil {
		t.Error("oversized LSTM state accepted")
	}
	opts = DefaultOptions()
	opts.Model = "transformer"
	if _, err := New(phftlGeo(), 1000, opts); err == nil {
		t.Error("unknown model accepted")
	}
}

// PHFTL must opt in to trim notifications.
var _ ftl.TrimAware = (*PHFTL)(nil)

func TestPHFTLOnTrimResolvesAndResets(t *testing.T) {
	f, p, err := Build(phftlGeo(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Two writes then a trim: the trim must resolve the second version's
	// lifetime, reset the host history, and zero the open-buffer metadata.
	if err := f.Write(ftl.UserWrite{LPN: 9, ReqPages: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(ftl.UserWrite{LPN: 9, ReqPages: 1}); err != nil {
		t.Fatal(err)
	}
	ppn := f.MappedPPN(9)
	if p.hostLast[9] == 0 {
		t.Fatal("hostLast not set by writes")
	}
	examplesBefore := len(p.examples)
	if err := f.Trim(9); err != nil {
		t.Fatal(err)
	}
	if p.hostLast[9] != 0 {
		t.Error("hostLast not reset by trim")
	}
	if p.histN[9] != 0 {
		t.Error("feature history not reset by trim")
	}
	if len(p.examples) != examplesBefore+1 {
		t.Errorf("examples = %d, want %d (trim harvests the pending write)", len(p.examples), examplesBefore+1)
	}
	ent, err := p.meta.Get(ppn)
	if err != nil {
		t.Fatal(err)
	}
	if ent != (Entry{}) {
		t.Errorf("metadata entry not invalidated: %+v", ent)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
}

// TestPHFTLTrimChurn exercises the full pipeline (training, prediction
// resolution via trims, metastore invalidation across sealed/open
// superblocks) under randomized write/trim churn.
func TestPHFTLTrimChurn(t *testing.T) {
	f, p, err := Build(phftlGeo(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exported := f.ExportedPages()
	rng := rand.New(rand.NewSource(3))
	for lpn := 0; lpn < exported; lpn++ {
		if err := f.Write(ftl.UserWrite{LPN: nand.LPN(lpn), ReqPages: 1}); err != nil {
			t.Fatal(err)
		}
	}
	hot := exported / 20
	for i := 0; i < 4*exported; i++ {
		lpn := nand.LPN(rng.Intn(hot))
		if rng.Intn(8) == 0 {
			lpn = nand.LPN(hot + rng.Intn(exported-hot))
		}
		if rng.Intn(6) == 0 {
			if err := f.Trim(lpn); err != nil {
				t.Fatal(err)
			}
		} else if err := f.Write(ftl.UserWrite{LPN: lpn, ReqPages: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Err(); err != nil {
		t.Fatalf("PHFTL internal error: %v", err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if f.Stats().Trims == 0 {
		t.Fatal("no trims issued")
	}
	if p.Stats().Deploys == 0 {
		t.Error("model never deployed under trim churn")
	}
}
