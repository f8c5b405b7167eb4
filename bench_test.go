// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), at reduced scale so the whole suite finishes in minutes. The
// subcommands of cmd/phftl (wa, clf, lat and perf) run the same experiments
// at full scaled size with human-readable output.
//
// Results are attached to each benchmark via b.ReportMetric, so
// `go test -bench=. -benchmem` prints the reproduced quantities alongside
// the usual ns/op.
package phftl_test

import (
	"math/rand"
	"testing"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/perfsim"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
	"github.com/phftl/phftl/internal/workload"
)

// benchProfile returns a reduced-size copy of a named profile so benchmarks
// stay fast.
func benchProfile(b *testing.B, id string, pages int) workload.Profile {
	b.Helper()
	p, ok := workload.ProfileByID(id)
	if !ok {
		b.Fatalf("missing profile %s", id)
	}
	if pages > 0 {
		p.ExportedPages = pages
	}
	return p
}

// BenchmarkFig2LifetimeCDF reproduces Figure 2(a): the skewed page-lifetime
// distribution of a cloud workload and the inflection-point threshold at the
// knee of its CDF. Reported metrics: the knee value and the fraction of
// samples below it.
func BenchmarkFig2LifetimeCDF(b *testing.B) {
	p := benchProfile(b, "#52", 8192)
	var knee, fracBelow float64
	for i := 0; i < b.N; i++ {
		gen := p.NewGenerator()
		recs := gen.Records(3 * p.ExportedPages)
		ops := trace.Expand(recs, p.PageSize, p.ExportedPages)
		var finite []float64
		for _, l := range trace.AnnotateLifetimes(ops) {
			if l != trace.InfiniteLifetime {
				finite = append(finite, float64(l))
			}
		}
		var idx int
		knee, idx = metrics.InflectionPoint(finite)
		fracBelow = float64(idx) / float64(len(finite))
	}
	b.ReportMetric(knee, "knee-lifetime")
	b.ReportMetric(fracBelow*100, "%samples-below-knee")
}

// BenchmarkFig5WriteAmplification reproduces Figure 5 on two representative
// traces (#52, lowest WA; #144, highest WA) across all four schemes,
// reporting each scheme's data write amplification in percent. Run
// `phftl wa` for the full 20-trace sweep.
func BenchmarkFig5WriteAmplification(b *testing.B) {
	for _, id := range []string{"#52", "#144"} {
		for _, scheme := range sim.Schemes() {
			b.Run(id+"/"+string(scheme), func(b *testing.B) {
				p := benchProfile(b, id, 8192)
				var wa float64
				for i := 0; i < b.N; i++ {
					res, err := sim.RunProfile(p, scheme, 4, nil)
					if err != nil {
						b.Fatal(err)
					}
					wa = res.DataWA
				}
				b.ReportMetric(wa*100, "%WA")
			})
		}
	}
}

// BenchmarkTable1Classifier reproduces Table I on three traces spanning the
// paper's accuracy range, reporting accuracy/precision/recall/F1.
func BenchmarkTable1Classifier(b *testing.B) {
	for _, id := range []string{"#52", "#144", "#326"} {
		b.Run(id, func(b *testing.B) {
			p := benchProfile(b, id, 8192)
			var c *metrics.Confusion
			for i := 0; i < b.N; i++ {
				res, err := sim.RunProfile(p, sim.SchemePHFTL, 4, nil)
				if err != nil {
					b.Fatal(err)
				}
				c = res.Confusion
			}
			b.ReportMetric(c.Accuracy(), "accuracy")
			b.ReportMetric(c.Precision(), "precision")
			b.ReportMetric(c.Recall(), "recall")
			b.ReportMetric(c.F1(), "f1")
		})
	}
}

// BenchmarkMetaCacheHitRate reproduces the §V-B claim that the 1% RAM
// metadata cache serves 98.2%-99.9% of flash-backed retrievals, on the
// sequential-leaning trace #52.
func BenchmarkMetaCacheHitRate(b *testing.B) {
	p := benchProfile(b, "#52", 8192)
	var hit float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunProfile(p, sim.SchemePHFTL, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		hit = res.MetaStats.HitRate()
	}
	b.ReportMetric(hit*100, "%hit-rate")
}

// BenchmarkAblationSeqLen1 reproduces the §V-C ablation: truncating the
// feature sequence to length 1 (no cached hidden state) reduces accuracy —
// the paper reports a drop of up to 9.2% (4.0% on average).
func BenchmarkAblationSeqLen1(b *testing.B) {
	p := benchProfile(b, "#144", 8192)
	var full, trunc float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunProfile(p, sim.SchemePHFTL, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		full = res.Confusion.Accuracy()
		opts := core.DefaultOptions()
		opts.SeqLen = 1
		res1, err := sim.RunProfile(p, sim.SchemePHFTL, 4, &opts)
		if err != nil {
			b.Fatal(err)
		}
		trunc = res1.Confusion.Accuracy()
	}
	b.ReportMetric(full, "accuracy-seq8")
	b.ReportMetric(trunc, "accuracy-seq1")
	b.ReportMetric((full-trunc)*100, "accuracy-drop-pp")
}

// BenchmarkAblationQuantization reproduces the §IV claim: deploying int8
// weights costs <1% accuracy versus float weights.
func BenchmarkAblationQuantization(b *testing.B) {
	p := benchProfile(b, "#326", 8192)
	var quant, float float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunProfile(p, sim.SchemePHFTL, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		quant = res.Confusion.Accuracy()
		opts := core.DefaultOptions()
		opts.Quantize = false
		resf, err := sim.RunProfile(p, sim.SchemePHFTL, 4, &opts)
		if err != nil {
			b.Fatal(err)
		}
		float = resf.Confusion.Accuracy()
	}
	b.ReportMetric(quant, "accuracy-int8")
	b.ReportMetric(float, "accuracy-float")
	b.ReportMetric((float-quant)*100, "quantization-loss-pp")
}

// BenchmarkFig6OffCriticalPath reproduces Figure 6: mean write latency for
// stock / sync / off-path prediction at 4 KiB and 1 MiB request sizes, and
// the sync placement's average inflation (paper: +139.7%).
func BenchmarkFig6OffCriticalPath(b *testing.B) {
	tm := perfsim.DefaultTiming()
	var res []perfsim.MicrobenchResult
	for i := 0; i < b.N; i++ {
		res = perfsim.RunFig6(tm, 16384, 2000, 1)
	}
	var sums [3]float64
	for i, r := range res {
		sums[i/len(perfsim.Fig6RequestSizes)] += r.MeanNS
	}
	b.ReportMetric(res[0].MeanNS/1000, "stock-4K-us")
	b.ReportMetric(res[len(perfsim.Fig6RequestSizes)].MeanNS/1000, "sync-4K-us")
	b.ReportMetric(res[2*len(perfsim.Fig6RequestSizes)].MeanNS/1000, "offpath-4K-us")
	b.ReportMetric((sums[1]/sums[0]-1)*100, "%sync-inflation")
	b.ReportMetric((sums[2]/sums[0]-1)*100, "%offpath-inflation")
}

// BenchmarkFig7Bandwidth reproduces Figure 7 (top) on trace #144: phase-1
// steady-state bandwidth of the stock FTL versus PHFTL-hw.
func BenchmarkFig7Bandwidth(b *testing.B) {
	p := benchProfile(b, "#144", 6144)
	geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
	var stock, phftl float64
	for i := 0; i < b.N; i++ {
		for _, scheme := range []sim.Scheme{sim.SchemeBase, sim.SchemePHFTL} {
			m, err := perfsim.NewMachine(scheme, geo, perfsim.DefaultTiming())
			if err != nil {
				b.Fatal(err)
			}
			gen := p.NewGenerator()
			pts, err := m.RunPhase1(gen.Records(6*p.ExportedPages), p.PageSize, 32)
			if err != nil {
				b.Fatal(err)
			}
			last := pts[len(pts)-1].MBPerSec
			if scheme == sim.SchemeBase {
				stock = last
			} else {
				phftl = last
			}
		}
	}
	b.ReportMetric(stock, "stock-MBps")
	b.ReportMetric(phftl, "phftl-MBps")
	b.ReportMetric((phftl/stock-1)*100, "%bandwidth-gain")
}

// BenchmarkFig7Latency reproduces Figure 7 (bottom) on trace #144: phase-2
// write-latency percentiles and average for stock versus PHFTL-hw.
func BenchmarkFig7Latency(b *testing.B) {
	p := benchProfile(b, "#144", 4096)
	p.InterArrivalUS = 2600
	geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
	var stock, phftl perfsim.LatencyStats
	for i := 0; i < b.N; i++ {
		for _, scheme := range []sim.Scheme{sim.SchemeBase, sim.SchemePHFTL} {
			m, err := perfsim.NewMachine(scheme, geo, perfsim.DefaultTiming())
			if err != nil {
				b.Fatal(err)
			}
			gen := p.NewGenerator()
			if _, err := m.RunPhase1(gen.Records(4*p.ExportedPages), p.PageSize, 32); err != nil {
				b.Fatal(err)
			}
			st, err := m.RunPhase2(gen.Records(p.ExportedPages/2), p.PageSize)
			if err != nil {
				b.Fatal(err)
			}
			if scheme == sim.SchemeBase {
				stock = st
			} else {
				phftl = st
			}
		}
	}
	b.ReportMetric(stock.P999, "stock-P99.9-ms")
	b.ReportMetric(phftl.P999, "phftl-P99.9-ms")
	b.ReportMetric((phftl.Avg/stock.Avg-1)*100, "%avg-latency-delta")
}

// BenchmarkAblationVictimPolicy compares PHFTL under its Adjusted Greedy
// policy (Eq. 1) against plain Greedy and Cost-Benefit, the design choice
// §III-D motivates.
func BenchmarkAblationVictimPolicy(b *testing.B) {
	p := benchProfile(b, "#144", 8192)
	geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
	for _, pol := range []string{"adjusted", "greedy", "costbenefit"} {
		b.Run(pol, func(b *testing.B) {
			var wa float64
			for i := 0; i < b.N; i++ {
				in, err := sim.Build(sim.SchemePHFTL, geo, &sim.Spec{Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.RunOn(in, p, 4)
				if err != nil {
					b.Fatal(err)
				}
				wa = res.DataWA
			}
			b.ReportMetric(wa*100, "%WA")
		})
	}
}

// BenchmarkAblationGCStreams compares PHFTL's GC-count-separated GC writes
// (5 classes, §III-A) against collapsing all GC writes into one stream.
func BenchmarkAblationGCStreams(b *testing.B) {
	p := benchProfile(b, "#144", 8192)
	for _, streams := range []int{1, 5} {
		b.Run(map[int]string{1: "single", 5: "five-classes"}[streams], func(b *testing.B) {
			var wa float64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.GCStreams = streams
				res, err := sim.RunProfile(p, sim.SchemePHFTL, 4, &opts)
				if err != nil {
					b.Fatal(err)
				}
				wa = res.DataWA
			}
			b.ReportMetric(wa*100, "%WA")
		})
	}
}

// BenchmarkWritePath measures the per-page cost of PHFTL's full write path
// (features + O(1) GRU prediction + metadata + placement) versus the Base
// FTL — the software analogue of the paper's single-prediction overhead.
func BenchmarkWritePath(b *testing.B) {
	p := benchProfile(b, "#177", 8192)
	for _, scheme := range []sim.Scheme{sim.SchemeBase, sim.SchemePHFTL} {
		b.Run(string(scheme), func(b *testing.B) {
			geo := sim.GeometryForDrive(p.ExportedPages, p.PageSize)
			in, err := sim.Build(scheme, geo, nil)
			if err != nil {
				b.Fatal(err)
			}
			gen := p.NewGenerator()
			ops := trace.Expand(gen.Records(b.N+p.ExportedPages), p.PageSize, in.FTL.ExportedPages())
			b.ResetTimer()
			if err := in.Replay(ops[:b.N]); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkWritePathSteadyState measures the per-page write cost once the
// drive is in steady state — fully written, GC active, model deployed —
// which is the regime phftl wa wall-clock is dominated by. With -benchmem it
// also pins the zero-allocation invariant of the hot path (the alloc
// regression tests in internal/core assert the same property exactly).
// Because GC is active, every erase taken here crosses the device's
// disabled (nil) erase-hook branch, so this benchmark is also the
// ≤2%-overhead gate for the wear-observability hooks when no Observation
// is attached.
func BenchmarkWritePathSteadyState(b *testing.B) {
	for _, scheme := range []sim.Scheme{sim.SchemeBase, sim.SchemePHFTL} {
		b.Run(string(scheme), func(b *testing.B) {
			geo := sim.GeometryForDrive(8192, 16384)
			in, err := sim.Build(scheme, geo, nil)
			if err != nil {
				b.Fatal(err)
			}
			exported := in.FTL.ExportedPages()
			rng := rand.New(rand.NewSource(7))
			write := func(lpn nand.LPN) {
				if err := in.FTL.Write(ftl.UserWrite{LPN: lpn, ReqPages: 1}); err != nil {
					b.Fatal(err)
				}
			}
			for lpn := 0; lpn < exported; lpn++ {
				write(nand.LPN(lpn))
			}
			for i := 0; i < 2*exported; i++ {
				write(nand.LPN(rng.Intn(exported)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write(nand.LPN(rng.Intn(exported)))
			}
		})
	}
}

// BenchmarkAblationModelArch reproduces the paper's §III-B design-space
// exploration ("after exploring a wide variety of machine learning models"):
// the GRU Page Classifier versus an LSTM (same state budget: 16 hidden
// units, h‖c persisted) and a stateless MLP, on runtime accuracy.
func BenchmarkAblationModelArch(b *testing.B) {
	p := benchProfile(b, "#144", 0)
	for _, mk := range []struct {
		model  string
		hidden int
	}{{"gru", 32}, {"lstm", 16}, {"mlp", 32}} {
		b.Run(mk.model, func(b *testing.B) {
			var acc, wa float64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.Model = mk.model
				opts.Hidden = mk.hidden
				res, err := sim.RunProfile(p, sim.SchemePHFTL, 4, &opts)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.Confusion.Accuracy()
				wa = res.DataWA
			}
			b.ReportMetric(acc, "accuracy")
			b.ReportMetric(wa*100, "%WA")
		})
	}
}
