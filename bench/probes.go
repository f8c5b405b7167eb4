package main

import (
	"bytes"
	"io"
	"math/rand"
	"time"

	"github.com/phftl/phftl/internal/core"
	"github.com/phftl/phftl/internal/ml"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
	"github.com/phftl/phftl/internal/obs/registry"
	"github.com/phftl/phftl/internal/sim"
	"github.com/phftl/phftl/internal/trace"
)

// Probes time one layer's public functions in isolation, on inputs shaped
// like the runs. They are workload-independent (fixed internal seeds), so
// they run once per report. Each is a plain loop sized for a few tens of
// milliseconds; none has a bound — they explain, the end-to-end metrics gate.

// perOp runs fn n times and returns nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// stubReader serves one blank meta page for every address: the store only
// decodes entries out of it.
type stubReader struct{ page []byte }

func (r stubReader) ReadMetaPage(nand.PPN) ([]byte, error) { return r.page, nil }

// runProbes returns every "(probe)" per-layer metric.
func runProbes(quick bool) map[string]float64 {
	m := make(map[string]float64)
	div := 1
	if quick {
		div = 8
	}
	probeTrace(m)
	probeNAND(m, 65536/div)
	probeCore(m, 262144/div)
	probeML(m, 2048/div)
	probeObs(m)
	probeCellWorkers(m, 32768/div)
	probeObsTax(m, 1048576/div)
	return m
}

// probeTrace: Expander.Expand over generated #144 records with a no-op yield.
func probeTrace(m map[string]float64) {
	p, _ := profileFor("#144", 262144, 1)
	recs := p.NewGenerator().Records(200000)
	e := trace.NewExpander(p.PageSize, p.ExportedPages)
	ops := 0
	t0 := time.Now()
	for _, r := range recs {
		_ = e.Expand(r, func(trace.PageOp) error { ops++; return nil }) // the yield never fails
	}
	m["trace.expand_ns_per_op"] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
}

// probeNAND: program then invalidate every data page of a scratch device in
// superblock order, the order the FTL uses.
func probeNAND(m map[string]float64, pages int) {
	geo := sim.GeometryForDrive(pages, 16384)
	dev := nand.MustNewDevice(geo)
	oob := make([]byte, core.EntrySize)
	per := geo.PagesPerSuperblock()
	n := geo.Superblocks() * per
	m["nand.program_ns"] = perOp(n, func(i int) {
		_ = dev.Program(geo.SuperblockPPN(i/per, i%per), nand.LPN(i), oob) // in-order programs of free pages cannot fail
	})
	m["nand.invalidate_ns"] = perOp(n, func(i int) {
		_ = dev.Invalidate(geo.SuperblockPPN(i/per, i%per)) // every page was just programmed
	})
}

// probeCore: the feature tail, and the metadata store over a stub reader on
// a scripted walk — fill and seal every superblock, then read back entries
// in short runs scattered over a working set far larger than the 1% cache.
func probeCore(m map[string]float64, pages int) {
	geo := sim.GeometryForDrive(pages, 16384)
	fe := core.NewFeatureExtractor(pages, core.DefaultOptions().ChunkPages)
	rng := rand.New(rand.NewSource(11))
	lpns := make([]nand.LPN, 1<<16)
	for i := range lpns {
		lpns[i] = nand.LPN(rng.Intn(pages))
		fe.NoteWrite(lpns[i])
	}
	buf := make([]float64, 0, core.InputDim)
	m["core.encode_tail_ns"] = perOp(1<<20, func(i int) {
		buf = fe.EncodeTail(buf[:0], lpns[i&(len(lpns)-1)], 1+i&3, i&8 != 0)
	})

	dataPages, metaPages, epp := core.MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
	store := core.NewMetaStore(geo, dataPages, metaPages, epp, core.DefaultOptions().CacheFrac,
		stubReader{page: make([]byte, epp*core.EntrySize)})
	sbs := geo.Superblocks()
	entry := core.Entry{LastWrite: 1}
	var putNS, sealNS int64
	for sb := 0; sb < sbs; sb++ {
		t0 := time.Now()
		for off := 0; off < dataPages; off++ {
			store.Put(geo.SuperblockPPN(sb, off), entry)
		}
		t1 := time.Now()
		store.Seal(sb)
		putNS += t1.Sub(t0).Nanoseconds()
		sealNS += time.Since(t1).Nanoseconds()
	}
	m["core.meta_put_ns"] = float64(putNS) / float64(sbs*dataPages)
	m["core.meta_seal_us"] = float64(sealNS) / float64(sbs) / 1e3
	m["core.meta_get_ns"] = perOp(1<<19, func(i int) {
		run := i >> 2 // four consecutive pages per request, like ReqPagesMax
		sb := (run * 7919) % sbs
		off := (run*31)%(dataPages-4) + i&3
		_, _ = store.Get(geo.SuperblockPPN(sb, off)) // the stub reader never fails
	})
}

// probeML: one quantized GRU step, and ShardedTrainer.Train per example on a
// fixed set of 8-step sequences.
func probeML(m map[string]float64, examples int) {
	opts := core.DefaultOptions()
	rng := rand.New(rand.NewSource(5))
	model := ml.NewGRUNet(core.InputDim, opts.Hidden, ml.NumClassesDefault, rng)
	samples := make([]ml.Sample, examples)
	for i := range samples {
		seq := make([][]float64, opts.SeqLen)
		for s := range seq {
			seq[s] = make([]float64, core.InputDim)
			for d := range seq[s] {
				seq[s][d] = float64(rng.Intn(16)) / 15
			}
		}
		samples[i] = ml.Sample{Seq: seq, Label: i & 1}
	}
	deployed := model.QuantizeModel()
	h := make([]float64, deployed.StateSize())
	m["ml.predict_step_ns"] = perOp(1<<17, func(i int) {
		deployed.PredictInto(h, samples[i%examples].Seq[i&7], h)
	})
	trainer := ml.NewShardedTrainer(core.TrainerLanes)
	adam := ml.NewAdam(opts.Train.LR)
	t0 := time.Now()
	trainer.Train(model, samples, adam, opts.Train)
	m["ml.train_example_us"] = float64(time.Since(t0).Microseconds()) / float64(examples)
}

// probeObs: the recorder, the JSONL encoder, the registry cell and one
// /metrics render over a 16-cell registry.
func probeObs(m map[string]float64) {
	ev := obs.Event{Kind: obs.KindGCStart, Clock: 12345, SB: 17, Stream: 2, GCClass: 1, A: 40, B: 9, F0: 0.31}
	rec := obs.NewTraceRecorder(0)
	m["obs.record_ns"] = perOp(1<<18, func(i int) {
		ev.Clock = uint64(i)
		rec.Record(ev)
	})
	var line []byte
	m["obs.jsonl_event_ns"] = perOp(1<<18, func(i int) {
		line = obs.AppendJSON(line[:0], ev, "#144/PHFTL")
	})

	reg := registry.New()
	var cells []*registry.Cell
	for _, w := range workloads {
		for _, id := range w.SweepTraces {
			for _, s := range w.SweepSchemes {
				cells = append(cells, reg.OpenCell(id+"/"+string(s), registry.CellMeta{Trace: id, Scheme: string(s)}))
			}
		}
	}
	m["registry.record_ns"] = perOp(1<<18, func(i int) { cells[i&15].Record(ev) })
	sample := obs.Sample{Clock: 1, IntervalWA: 0.2, CumWA: 0.2, FreeSB: 20, CacheHitRatio: 0.99, WearSkew: 1.1, WearCoV: 0.1, Threshold: 900}
	m["registry.publish_sample_ns"] = perOp(1<<16, func(i int) {
		sample.Clock = uint64(i)
		cells[i&15].PublishSample(sample, registry.FTLTotals{UserWrites: uint64(i)})
	})
	var expo bytes.Buffer
	const renders = 50
	m["httpd.metrics_render_ms"] = perOp(renders, func(int) {
		expo.Reset()
		_ = reg.WritePrometheus(&expo) // a bytes.Buffer write cannot fail
	}) / 1e6
	m["httpd.metrics_bytes"] = float64(expo.Len())
}

// coldReplay builds a fresh cell, lets prepare instrument it, and times dw
// drive writes from empty, in wall seconds. A failed build or replay reads
// zero, and the probe reports nothing. The two sides a probe compares run
// seconds apart on a drifting host, so probes alternate them.
func coldReplay(traceID string, scheme sim.Scheme, pages, dw int, prepare func(*sim.Instance)) (*sim.Instance, float64) {
	p, err := profileFor(traceID, pages, 1)
	if err != nil {
		return nil, 0
	}
	in, err := sim.Build(scheme, sim.GeometryForDrive(p.ExportedPages, p.PageSize), nil)
	if err != nil {
		return nil, 0
	}
	prepare(in)
	src := newSource(p, dw*pages, nil, nil)
	t0 := time.Now()
	if err := in.ReplayStream(src, p.PageSize); err != nil {
		return nil, 0
	}
	in.Finish()
	return in, time.Since(t0).Seconds()
}

// probePairs is how many alternating pairs a two-sided probe times.
const probePairs = 3

// probeCellWorkers: the phftl-small cell cold, serial against
// SetCellWorkers(2), 1 dw each — the number the earn-or-delete audit of the
// intra-cell pipeline needs. Results are byte-identical at any worker count.
func probeCellWorkers(m map[string]float64, pages int) {
	var serial, par2 float64
	for i := 0; i < probePairs; i++ {
		_, s := coldReplay("#144", sim.SchemePHFTL, pages, 1, func(*sim.Instance) {})
		_, p := coldReplay("#144", sim.SchemePHFTL, pages, 1, func(in *sim.Instance) { in.SetCellWorkers(2) })
		if s == 0 || p == 0 {
			return
		}
		serial += s
		par2 += p
	}
	m["par.cell_workers2_speedup"] = serial / par2
}

// discardSink turns retained telemetry into JSONL the way a file sink does,
// and throws it away.
func discardSink(in *sim.Instance) {
	_ = obs.WriteJSONL(io.Discard, "#144/Base", in.Obs.Rec.Events(), in.Obs.Sampler.Series()) // io.Discard cannot fail
}

// probeObsTax: 1 dw of the base-large cell with sim.Observe, a registry cell
// and the JSONL encoding of what it retained, against the same replay bare —
// the telemetry tax where per-write work is cheapest, so the tax is largest.
func probeObsTax(m map[string]float64, pages int) {
	var bare, observed float64
	for i := 0; i < probePairs; i++ {
		_, b := coldReplay("#144", sim.SchemeBase, pages, 1, func(*sim.Instance) {})
		in, o := coldReplay("#144", sim.SchemeBase, pages, 1, func(in *sim.Instance) {
			cell := registry.New().OpenCell("#144/Base", registry.CellMeta{Trace: "#144", Scheme: "Base"})
			sim.Observe(in, sim.ObserveConfig{Cell: cell})
		})
		if b == 0 || o == 0 {
			return
		}
		t0 := time.Now()
		discardSink(in)
		bare += b
		observed += o + time.Since(t0).Seconds()
	}
	m["obs.tax_pct"] = (observed - bare) / bare * 100
}
