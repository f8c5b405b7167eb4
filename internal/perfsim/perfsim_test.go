package perfsim

import (
	"math"
	"slices"
	"testing"

	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

func TestMicrobenchStockLatencyComposition(t *testing.T) {
	tm := DefaultTiming()
	tm.NoiseFrac = 0 // deterministic
	res := WriteLatencyMicrobench(tm, PredNone, 4096, 16384, 100, 1)
	want := float64(tm.CmdNS) + 4096/tm.DMABytesPerNS + float64(tm.CompletionNS)
	if math.Abs(res.MeanNS-want) > 1e-6 {
		t.Errorf("stock 4K latency = %v, want %v", res.MeanNS, want)
	}
	if res.StdDevNS > 1e-6 {
		t.Errorf("noise-free stddev = %v", res.StdDevNS)
	}
}

func TestMicrobenchSyncPenalty(t *testing.T) {
	tm := DefaultTiming()
	tm.NoiseFrac = 0
	for _, sz := range Fig6RequestSizes {
		stock := WriteLatencyMicrobench(tm, PredNone, sz, 16384, 10, 1)
		sync := WriteLatencyMicrobench(tm, PredSync, sz, 16384, 10, 1)
		pages := (sz + 16383) / 16384
		wantDelta := float64(pages) * float64(tm.PredictNS)
		if got := sync.MeanNS - stock.MeanNS; math.Abs(got-wantDelta) > 1e-6 {
			t.Errorf("size %d: sync penalty = %v, want %v", sz, got, wantDelta)
		}
	}
}

func TestMicrobenchOffPathNearStock(t *testing.T) {
	// Figure 6's claim: off-path prediction restores latency to roughly the
	// stock level (within a few percent), while sync inflates it massively
	// at small sizes; and off-path shows more variance than stock.
	tm := DefaultTiming()
	var sumStock, sumSync, sumOff float64
	for _, sz := range Fig6RequestSizes {
		stock := WriteLatencyMicrobench(tm, PredNone, sz, 16384, 2000, 1)
		sync := WriteLatencyMicrobench(tm, PredSync, sz, 16384, 2000, 2)
		off := WriteLatencyMicrobench(tm, PredOffPath, sz, 16384, 2000, 3)
		if off.MeanNS > stock.MeanNS*1.25 {
			t.Errorf("size %d: off-path %.0f too far above stock %.0f", sz, off.MeanNS, stock.MeanNS)
		}
		if sync.MeanNS <= off.MeanNS {
			t.Errorf("size %d: sync %.0f not above off-path %.0f", sz, sync.MeanNS, off.MeanNS)
		}
		sumStock += stock.MeanNS
		sumSync += sync.MeanNS
		sumOff += off.MeanNS
	}
	// Average inflation of sync mode should be large (paper: +139.7%).
	if infl := sumSync/sumStock - 1; infl < 0.5 {
		t.Errorf("sync inflation = %.2f, want > 0.5", infl)
	}
	if infl := sumOff/sumStock - 1; infl > 0.10 {
		t.Errorf("off-path inflation = %.2f, want <= 0.10", infl)
	}
}

func TestRunFig6Shape(t *testing.T) {
	res := RunFig6(DefaultTiming(), 16384, 50, 1)
	if len(res) != 3*len(Fig6RequestSizes) {
		t.Fatalf("cells = %d", len(res))
	}
	for _, r := range res {
		if r.MeanNS <= 0 {
			t.Errorf("%v %d: mean %v", r.Placement, r.ReqBytes, r.MeanNS)
		}
	}
}

func machineGeo() nand.Geometry {
	return nand.Geometry{PageSize: 16384, OOBSize: 64, PagesPerBlock: 16, BlocksPerDie: 200, Dies: 4}
}

func TestMachineSingleWriteLatency(t *testing.T) {
	tm := DefaultTiming()
	m, err := NewMachine(sim.SchemeBase, machineGeo(), tm)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := m.WriteRequest(0, []nand.LPN{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := tm.CmdNS + int64(float64(16384)/tm.DMABytesPerNS) + tm.ProgramNS + tm.CompletionNS
	if lat != want {
		t.Errorf("latency = %d, want %d", lat, want)
	}
}

func TestMachineQueueingOnSameDie(t *testing.T) {
	// Striped allocation puts consecutive pages on different dies, so a
	// 4-page write overlaps; writing 8 pages makes each die serve 2 programs
	// and the request latency must include the second round.
	tm := DefaultTiming()
	m, err := NewMachine(sim.SchemeBase, machineGeo(), tm)
	if err != nil {
		t.Fatal(err)
	}
	lpns := make([]nand.LPN, 8)
	for i := range lpns {
		lpns[i] = nand.LPN(i)
	}
	lat, err := m.WriteRequest(0, lpns, true)
	if err != nil {
		t.Fatal(err)
	}
	if lat < 2*tm.ProgramNS {
		t.Errorf("8-page latency %d does not include two program rounds (%d)", lat, 2*tm.ProgramNS)
	}
}

func TestMachinePHFTLChargesPredictions(t *testing.T) {
	tm := DefaultTiming()
	mP, err := NewMachine(sim.SchemePHFTL, machineGeo(), tm)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := mP.WriteRequest(0, []nand.LPN{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	// The single prediction overlaps the DMA but the flush waits for it:
	// latency = cmd + max(dma, predict) + program + completion.
	dma := int64(float64(16384) / tm.DMABytesPerNS)
	pred := tm.PredictNS
	overlap := dma
	if pred > overlap {
		overlap = pred
	}
	want := tm.CmdNS + overlap + tm.ProgramNS + tm.CompletionNS
	if lat != want {
		t.Errorf("phftl latency = %d, want %d", lat, want)
	}
}

// TestMachineSamplesCarryLatencyPercentiles checks the sampler wiring: a
// timed run's samples must report per-interval P50/P99 write latency, the
// accumulator must drain at each snapshot, and percentiles must be ordered.
func TestMachineSamplesCarryLatencyPercentiles(t *testing.T) {
	tm := DefaultTiming()
	m, err := NewMachine(sim.SchemeBase, machineGeo(), tm)
	if err != nil {
		t.Fatal(err)
	}
	o := sim.Observe(m.In, sim.ObserveConfig{SampleEvery: 64})
	m.Observe(o)
	exported := m.In.FTL.ExportedPages()
	arrival := int64(0)
	for i := 0; i < 1024; i++ {
		lat, err := m.WriteRequest(arrival, []nand.LPN{nand.LPN(i % exported)}, false)
		if err != nil {
			t.Fatal(err)
		}
		arrival += lat
	}
	o.Finish(m.In.FTL.Clock())
	samples := o.Sampler.Series()
	if len(samples) < 2 {
		t.Fatalf("got %d samples, want >= 2", len(samples))
	}
	for i, s := range samples {
		if math.IsNaN(s.LatencyP50MS) || math.IsNaN(s.LatencyP99MS) {
			t.Fatalf("sample %d (clock %d) has NaN latency in a timed run", i, s.Clock)
		}
		if s.LatencyP50MS <= 0 || s.LatencyP99MS < s.LatencyP50MS {
			t.Errorf("sample %d: p50 %v p99 %v not positive/ordered", i, s.LatencyP50MS, s.LatencyP99MS)
		}
	}
	if len(m.intervalLats) != 0 {
		t.Errorf("interval accumulator not drained: %d entries", len(m.intervalLats))
	}
}

func TestMachineReadLatency(t *testing.T) {
	tm := DefaultTiming()
	m, err := NewMachine(sim.SchemeBase, machineGeo(), tm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteRequest(0, []nand.LPN{5}, false); err != nil {
		t.Fatal(err)
	}
	lat, err := m.ReadRequest(1e9, []nand.LPN{5})
	if err != nil {
		t.Fatal(err)
	}
	dma := int64(float64(16384) / tm.DMABytesPerNS)
	want := tm.CmdNS + tm.ReadNS + dma + tm.CompletionNS
	if lat != want {
		t.Errorf("read latency = %d, want %d", lat, want)
	}
	// Unmapped read: no flash op.
	lat, err = m.ReadRequest(2e9, []nand.LPN{100})
	if err != nil {
		t.Fatal(err)
	}
	if lat != tm.CmdNS+dma+tm.CompletionNS {
		t.Errorf("unmapped read latency = %d", lat)
	}
}

func TestPhase1BandwidthImprovesForPHFTLOnChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-drive-write timing replay")
	}
	// A churn-heavy profile: after the drive fills, GC dominates; PHFTL's
	// lower WA must translate into higher steady-state bandwidth than the
	// stock FTL (Figure 7 top).
	p, ok := workload.ProfileByID("#144")
	if !ok {
		t.Fatal("no profile")
	}
	p.ExportedPages = 8192
	geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
	run := func(scheme sim.Scheme) []BandwidthPoint {
		m, err := NewMachine(scheme, geo, DefaultTiming())
		if err != nil {
			t.Fatal(err)
		}
		gen := p.NewGenerator()
		recs := gen.Records(8 * p.ExportedPages)
		pts, err := m.RunPhase1(recs, p.PageSize, 32)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	stock := run(sim.SchemeBase)
	phftl := run(sim.SchemePHFTL)
	if len(stock) < 6 || len(phftl) < 6 {
		t.Fatalf("segments: stock %d, phftl %d", len(stock), len(phftl))
	}
	// Compare the last segments (steady state).
	sLast := stock[len(stock)-1].MBPerSec
	pLast := phftl[len(phftl)-1].MBPerSec
	t.Logf("steady-state bandwidth: stock %.1f MB/s vs phftl %.1f MB/s", sLast, pLast)
	if pLast <= sLast {
		t.Errorf("PHFTL steady-state bandwidth %.1f <= stock %.1f", pLast, sLast)
	}
	for _, pt := range append(stock, phftl...) {
		if pt.MBPerSec <= 0 {
			t.Errorf("non-positive bandwidth point %+v", pt)
		}
	}
}

func TestPhase2LatencyDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("timing replay")
	}
	p, _ := workload.ProfileByID("#144")
	p.ExportedPages = 4096
	p.InterArrivalUS = 800
	geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
	m, err := NewMachine(sim.SchemeBase, geo, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	gen := p.NewGenerator()
	// Load phase then a timed tail.
	load := gen.Records(3 * p.ExportedPages)
	if _, err := m.RunPhase1(load, p.PageSize, 32); err != nil {
		t.Fatal(err)
	}
	tail := gen.Records(p.ExportedPages / 2)
	stats, err := m.RunPhase2(tail, p.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if stats.P50 <= 0 || stats.Avg <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if !(stats.P50 <= stats.P90 && stats.P90 <= stats.P99 && stats.P99 <= stats.P995 && stats.P995 <= stats.P999) {
		t.Fatalf("percentiles not monotone: %+v", stats)
	}
}

// TestMachineRoutesTrims replays a trim twin through both phases: every
// discard the generator emitted for a mapped page reaches FTL.Trim (counted
// against a replay of the same records over a mapped-LPN table), and a trim
// costs only a zero-page command.
func TestMachineRoutesTrims(t *testing.T) {
	p, ok := workload.ProfileByID("#52T")
	if !ok {
		t.Fatal("no profile")
	}
	p.ExportedPages = 2048
	tm := DefaultTiming()
	m, err := NewMachine(sim.SchemeBase, sim.GeometryForDrive(p.ExportedPages, p.PageSize), tm)
	if err != nil {
		t.Fatal(err)
	}
	gen := p.NewGenerator()
	load, tail := gen.Records(2*p.ExportedPages), gen.Records(p.ExportedPages/2)
	if _, err := m.RunPhase1(load, p.PageSize, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunPhase2(tail, p.PageSize); err != nil {
		t.Fatal(err)
	}
	exported := m.In.FTL.ExportedPages()
	mapped := make([]bool, exported)
	var want uint64
	for _, op := range trace.Expand(slices.Concat(load, tail), p.PageSize, exported) {
		switch {
		case op.Write:
			mapped[op.LPN] = true
		case op.Trim && mapped[op.LPN]:
			mapped[op.LPN] = false
			want++
		}
	}
	if want == 0 {
		t.Fatal("the trim twin discarded no mapped page")
	}
	if got := m.In.FTL.Stats().Trims; got != want {
		t.Errorf("FTL trims = %d, want the %d mapped pages the generator discarded", got, want)
	}
	lat, err := m.TrimRequest([]nand.LPN{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if lat != tm.CmdNS+tm.CompletionNS {
		t.Errorf("trim latency %d ns, want the %d ns of a zero-page command", lat, tm.CmdNS+tm.CompletionNS)
	}
}
