package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"github.com/phftl/phftl/internal/ftl"
	"github.com/phftl/phftl/internal/metrics"
	"github.com/phftl/phftl/internal/ml"
	"github.com/phftl/phftl/internal/nand"
	"github.com/phftl/phftl/internal/obs"
)

// Stream layout: two user streams selected by the Page Classifier plus one
// stream per GC class (§III-A(3)).
const (
	// StreamUserLong receives pages predicted long-living (and all user
	// writes before the first model deployment).
	StreamUserLong = 0
	// StreamUserShort receives pages predicted short-living.
	StreamUserShort = 1
	// StreamGCBase is the stream of GC class 1; class k maps to
	// StreamGCBase+k-1.
	StreamGCBase = 2
)

// Options configures PHFTL.
type Options struct {
	// WindowFrac sizes the training window as a fraction of the drive's
	// exported capacity (paper: 5%).
	WindowFrac float64
	// SeqLen is the feature-sequence length used for training (and the
	// per-page history ring size). 1 reproduces the paper's truncation
	// ablation: prediction then ignores the cached hidden state.
	SeqLen int
	// Hidden is the GRU hidden width (paper: 32; the model's persisted
	// state must fit HiddenBytes — note an LSTM persists 2×Hidden values).
	Hidden int
	// Model selects the classifier architecture: "gru" (the paper's
	// choice), "lstm", or "mlp" (stateless), reproducing the design-space
	// exploration of §III-B.
	Model string
	// ChunkPages is the chunk size for chunk_write/chunk_read features.
	ChunkPages int
	// GCStreams is the number of GC classes (paper: 5 — pages GC'ed five
	// times or more share a superblock).
	GCStreams int
	// CacheFrac is the metadata cache capacity as a fraction of the meta
	// pages in the device (paper: 1%).
	CacheFrac float64
	// MaxExamples caps the per-window training-example reservoir.
	MaxExamples int
	// Train configures the per-window training pass (paper: one epoch,
	// Adam, cross-entropy).
	Train ml.TrainConfig
	// Quantize deploys an int8-quantized model (paper §IV); disabling it
	// deploys float weights (quantization-loss ablation).
	Quantize bool
	// Seed drives every random choice (init, shuffles, reservoir).
	Seed int64
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		WindowFrac:  0.05,
		SeqLen:      8,
		Hidden:      32,
		ChunkPages:  64,
		GCStreams:   5,
		CacheFrac:   0.01,
		MaxExamples: 4096,
		Train:       ml.DefaultTrainConfig(),
		Model:       "gru",
		Quantize:    true,
		Seed:        1,
	}
}

// Stats aggregates PHFTL-specific activity.
type Stats struct {
	Predictions     uint64 // classifier invocations on user writes
	PredictedShort  uint64
	Windows         uint64 // completed training windows
	Deploys         uint64 // model deployments
	TrainedExamples uint64 // samples used across all training passes
	LastTrainLoss   float64
}

// example is one reservoir slot of the window's training set. Its history
// rows live packed in PHFTL.exRows, oldest first, at the slot's offset.
type example struct {
	rows     int // history rows held (1..SeqLen)
	lifetime float64
	censored bool
}

// rowBytes is the packed size of one feature vector: every feature is a
// hexadecimal digit or a bit (§III-B), stored as a 4-bit digit, two a byte.
const rowBytes = (InputDim + 1) / 2

// digitValue decodes a packed digit to the value the model reads: d/15, the
// float64 ml.HexDigits computes (ml.Bit's 1 is 15/15 == 1 exactly).
var digitValue = func() (t [16]float64) {
	for d := range t {
		t[d] = float64(d) / 15.0
	}
	return t
}()

// packRow packs a feature vector of digit values (d/15 each) into row.
func packRow(row []byte, x []float64) {
	clear(row)
	for i, v := range x {
		row[i/2] |= uint8(v*15+0.5) << (4 * (i & 1))
	}
}

// unpackRow decodes a packed row into x, whose length is the feature width.
func unpackRow(x []float64, row []byte) {
	for i := range x {
		x[i] = digitValue[row[i/2]>>(4*(i&1))&0xF]
	}
}

const (
	predNone  = 0
	predLong  = 1
	predShort = 2
)

// PHFTL is the paper's FTL scheme, implemented as an ftl.Separator plus the
// host-side Model Trainer. Construct it with Build (or New + Attach).
type PHFTL struct {
	opts     Options
	geo      nand.Geometry
	exported int

	meta *MetaStore
	feat *FeatureExtractor
	adj  *ThresholdAdjuster

	model    *ml.Net // host-side float model, trained every window
	deployed *ml.Net // device-side model (quantized when opts.Quantize)
	opt      *ml.Adam

	// hist holds every LPN's last SeqLen feature vectors as packed rows in
	// one flat arena (SeqLen*rowBytes bytes per LPN, circular). histN counts
	// the rows appended since the page's last trim; once the ring is full it
	// stays in [SeqLen, 2*SeqLen), so the write slot is histN % SeqLen and
	// the counter never wraps.
	hist     []byte
	histN    []uint32
	hostLast []uint32 // host-side last-write clock per LPN, 1-based; 0 = never

	pendingEntry Entry
	pendingValid bool

	windowSize   int
	windowStart  uint64 // 1-based clock of the current window's first write
	windowWrites int
	lifetimes    []float64
	examples     []example
	examplesSeen int

	// exRows is the reservoir's packed history, SeqLen*rowBytes bytes per
	// example slot. A history is copied in only when the reservoir keeps its
	// example, and decoded once at window end into exSeqs: SeqLen rows per
	// slot, each an InputDim view of one flat float arena. Both keep their
	// storage across windows.
	exRows []byte
	exSeqs [][]float64

	// Window membership as an epoch-marked array instead of a map: LPN lpn
	// was written in the current window iff windowSeen[lpn] == windowEpoch.
	// windowLPNs lists them in insertion order (sorted at window end). Both
	// reuse their storage across windows, keeping the per-write bookkeeping
	// allocation-free. The epoch skips 0 (the never-written mark) and clears
	// the array when it wraps, so no stale mark can match.
	windowSeen  []uint32
	windowEpoch uint32
	windowLPNs  []uint32

	threshold   float64
	trainedOnce bool
	deployClock uint64 // virtual clock of the last model deployment

	pred       []uint8
	predThresh []float64
	confusion  metrics.Confusion

	// rec, when non-nil, receives threshold-update and retraining events;
	// the metadata store carries its own recorder reference.
	rec obs.Recorder

	rng      *rand.Rand
	stats    Stats
	xScratch []float64
	hScratch []float64
	oobBuf   []byte
	err      error // first internal error (surfaced via Err)

	// trainer runs the per-window retraining data-parallel over a fixed
	// number of gradient shards; deployed weights depend on the shard count
	// only, never on the worker count (see ml.ShardedTrainer).
	trainer *ml.ShardedTrainer

	// Pooled window scratch: probe set, training set, resampler. Reused
	// across windows so endWindow stops allocating in steady state.
	probeBuf  []probeSample
	sampleBuf []ml.Sample
	resample  ml.ResampleScratch
}

// TrainerLanes is the fixed gradient-shard count of the window retrainer.
// It is a structural constant, not a tuning knob: changing it changes the
// gradient summation order and therefore the deployed weights (the golden
// curves pin the current value).
const TrainerLanes = 4

// New creates a PHFTL scheme for the given geometry and exported capacity.
// Attach must be called with the owning FTL before the first write. Most
// callers should use NewForFTL (or sim.Build, or Build) instead.
func New(geo nand.Geometry, exportedPages int, opts Options) (*PHFTL, error) {
	if opts.Hidden <= 0 {
		return nil, fmt.Errorf("core: Hidden must be positive, got %d", opts.Hidden)
	}
	if opts.Model == "" {
		opts.Model = "gru"
	}
	if opts.SeqLen < 1 {
		return nil, fmt.Errorf("core: SeqLen must be >= 1, got %d", opts.SeqLen)
	}
	if opts.GCStreams < 1 {
		return nil, fmt.Errorf("core: GCStreams must be >= 1, got %d", opts.GCStreams)
	}
	if opts.WindowFrac <= 0 || opts.WindowFrac > 1 {
		return nil, fmt.Errorf("core: WindowFrac %v outside (0,1]", opts.WindowFrac)
	}
	if geo.OOBSize < EntrySize {
		return nil, fmt.Errorf("core: OOB size %d cannot hold the %d-byte metadata entry", geo.OOBSize, EntrySize)
	}
	dataPages, metaPages, epp := MetaLayout(geo.PagesPerSuperblock(), geo.PageSize)
	rng := rand.New(rand.NewSource(opts.Seed))
	var model *ml.Net
	switch opts.Model {
	case "gru":
		model = ml.NewGRUNet(InputDim, opts.Hidden, ml.NumClassesDefault, rng)
	case "lstm":
		model = ml.NewLSTMNet(InputDim, opts.Hidden, ml.NumClassesDefault, rng)
	case "mlp":
		model = ml.NewMLPNet(InputDim, opts.Hidden, ml.NumClassesDefault, rng)
	default:
		return nil, fmt.Errorf("core: unknown Model %q (gru, lstm or mlp)", opts.Model)
	}
	if model.StateSize() > HiddenBytes {
		return nil, fmt.Errorf("core: %s with Hidden %d persists %d state bytes, exceeding the %d-byte metadata slot",
			opts.Model, opts.Hidden, model.StateSize(), HiddenBytes)
	}
	windowSize := int(opts.WindowFrac * float64(exportedPages))
	if windowSize < 1 {
		windowSize = 1
	}
	p := &PHFTL{
		opts:        opts,
		geo:         geo,
		exported:    exportedPages,
		meta:        NewMetaStore(geo, dataPages, metaPages, epp, opts.CacheFrac, nil),
		feat:        NewFeatureExtractor(exportedPages, opts.ChunkPages),
		adj:         NewThresholdAdjuster(opts.Seed),
		model:       model,
		opt:         ml.NewAdam(opts.Train.LR),
		hist:        make([]byte, exportedPages*opts.SeqLen*rowBytes),
		histN:       make([]uint32, exportedPages),
		hostLast:    make([]uint32, exportedPages),
		windowSize:  windowSize,
		windowStart: 1,
		windowSeen:  make([]uint32, exportedPages),
		windowEpoch: 1,
		pred:        make([]uint8, exportedPages),
		predThresh:  make([]float64, exportedPages),
		rng:         rng,
		hScratch:    make([]float64, model.StateSize()),
		trainer:     ml.NewShardedTrainer(TrainerLanes),
	}
	// The device ships with the initial (untrained) model so hidden states
	// accumulate from the first write; separation activates after the first
	// deployment.
	p.deployed = p.model.QuantizeModel()
	return p, nil
}

// Attach wires the metadata store to the FTL that owns this separator.
func (p *PHFTL) Attach(reader FlashReader) { p.meta.reader = reader }

// NewForFTL creates a PHFTL scheme for the FTL cfg describes. It applies
// PHFTL's FTL settings to cfg — the meta pages reserved by MetaLayout and
// the GC-class cap — sizes the scheme to the capacity cfg then exports, and
// returns the Adjusted Greedy victim policy fed by the adaptive threshold.
// Build the FTL from cfg, the scheme and a policy, then Attach it.
func NewForFTL(cfg *ftl.Config, opts Options) (*PHFTL, ftl.VictimPolicy, error) {
	_, cfg.MetaPagesPerSB, _ = MetaLayout(cfg.Geometry.PagesPerSuperblock(), cfg.Geometry.PageSize)
	cfg.MaxGCClass = opts.GCStreams
	p, err := New(cfg.Geometry, cfg.ExportedPages(), opts)
	if err != nil {
		return nil, nil, err
	}
	return p, &ftl.AdjustedGreedyPolicy{Thresh: p, IsShortStream: p.IsShortStream}, nil
}

// Build assembles a complete PHFTL system over a fresh device at the
// paper's FTL defaults: the FTL configured by NewForFTL under Adjusted
// Greedy, and the attached scheme. sim.Build assembles every scheme,
// PHFTL included, with more choices.
func Build(geo nand.Geometry, opts Options) (*ftl.FTL, *PHFTL, error) {
	cfg := ftl.DefaultConfig(geo)
	p, policy, err := NewForFTL(&cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	f, err := ftl.New(cfg, p, policy)
	if err != nil {
		return nil, nil, err
	}
	p.Attach(f)
	return f, p, nil
}

// Err returns the first internal error encountered on the data path (the
// Separator interface cannot propagate errors inline).
func (p *PHFTL) Err() error { return p.err }

// Stats returns PHFTL activity counters.
func (p *PHFTL) Stats() Stats { return p.stats }

// MetaStats returns metadata-cache statistics (§V-B hit-rate claim).
func (p *PHFTL) MetaStats() MetaStats { return p.meta.Stats() }

// SetRecorder installs a trace-event recorder on the scheme and its
// metadata store. clockFn supplies the virtual clock for metadata-cache
// events (the FTL's Clock method; nil stamps 0).
func (p *PHFTL) SetRecorder(r obs.Recorder, clockFn func() uint64) {
	p.rec = r
	p.meta.SetRecorder(r, clockFn)
}

// SetTrainWorkers pins how many goroutines each window retraining runs on
// (see ml.ShardedTrainer.SetWorkers; the default is one per CPU). Deployed
// weights are bit-identical at any count; only wall-clock changes.
func (p *PHFTL) SetTrainWorkers(n int) { p.trainer.SetWorkers(n) }

// Confusion returns the runtime prediction quality against ground-truth
// lifetimes (Table I). Call Finish first to resolve outstanding predictions.
func (p *PHFTL) Confusion() *metrics.Confusion { return &p.confusion }

// Threshold implements ftl.ThresholdSource for the Adjusted Greedy policy.
func (p *PHFTL) Threshold() float64 { return p.threshold }

// IsShortStream reports whether a stream holds predicted-short-living pages.
func (p *PHFTL) IsShortStream(stream int) bool { return stream == StreamUserShort }

// Name implements ftl.Separator.
func (*PHFTL) Name() string { return "PHFTL" }

// NumStreams implements ftl.Separator.
func (p *PHFTL) NumStreams() int { return 2 + p.opts.GCStreams }

// StreamGCClass implements ftl.Separator.
func (p *PHFTL) StreamGCClass(stream int) int {
	if stream >= StreamGCBase {
		return stream - StreamGCBase + 1
	}
	return 0
}

// histRing returns lpn's packed history ring.
func (p *PHFTL) histRing(lpn uint32) []byte {
	stride := p.opts.SeqLen * rowBytes
	return p.hist[int(lpn)*stride : (int(lpn)+1)*stride]
}

// appendHist records x as lpn's newest history row.
func (p *PHFTL) appendHist(lpn uint32, x []float64) {
	seqLen := uint32(p.opts.SeqLen)
	n := p.histN[lpn]
	slot := int(n % seqLen)
	packRow(p.histRing(lpn)[slot*rowBytes:(slot+1)*rowBytes], x)
	if n++; n == 2*seqLen {
		n = seqLen
	}
	p.histN[lpn] = n
}

// copyHist copies lpn's history rows oldest first into dst, which holds
// SeqLen rows, and returns the row count.
func (p *PHFTL) copyHist(dst []byte, lpn uint32) int {
	seqLen, n := p.opts.SeqLen, int(p.histN[lpn])
	ring := p.histRing(lpn)
	if n < seqLen {
		copy(dst, ring[:n*rowBytes])
		return n
	}
	oldest := (n % seqLen) * rowBytes
	copy(dst[copy(dst, ring[oldest:]):], ring[:oldest])
	return seqLen
}

// PlaceUserWrite implements ftl.Separator: this is PHFTL's per-write path —
// metadata retrieval, feature extraction, O(1) prediction from the cached
// hidden state, window bookkeeping, and stream selection.
func (p *PHFTL) PlaceUserWrite(w ftl.UserWrite, clock uint64) (int, []byte) {
	lpn := uint32(w.LPN)
	now := clock + 1

	entry, err := p.meta.Get(w.OldPPN)
	if err != nil && p.err == nil {
		p.err = err
	}
	prevLife := uint64(MaxLifetimeFeature)
	if entry.LastWrite > 0 {
		prevLife = now - uint64(entry.LastWrite)
	}

	p.resolveLifetime(lpn, now)

	x := p.feat.Encode(p.xScratch, w.LPN, prevLife, w.ReqPages, w.Seq)
	p.xScratch = x

	// Device-side prediction: one GRU step from the cached hidden state.
	// A cached state computed before the last model deployment belongs to
	// an older model generation — feeding it to the new weights is noise,
	// so such pages cold-start from the zero state, exactly matching the
	// training distribution (training sequences start at h = 0). Pages
	// updated faster than the window always keep a fresh state.
	stateSize := p.deployed.StateSize()
	h := ml.DequantizeHidden(entry.Hidden[:stateSize], p.hScratch)
	if p.opts.SeqLen == 1 || uint64(entry.LastWrite) <= p.deployClock {
		for i := range h {
			h[i] = 0
		}
	}
	cls := p.deployed.PredictInto(h, x, h)
	short := cls == 1
	if p.trainedOnce {
		p.stats.Predictions++
		if short {
			p.stats.PredictedShort++
		}
		if short {
			p.pred[lpn] = predShort
		} else {
			p.pred[lpn] = predLong
		}
		p.predThresh[lpn] = p.threshold
	}

	newEntry := Entry{LastWrite: uint32(now)}
	ml.QuantizeHidden(h, newEntry.Hidden[:stateSize])
	p.pendingEntry = newEntry
	p.pendingValid = true
	p.oobBuf = EncodeEntry(p.oobBuf, newEntry)

	// Host bookkeeping after feature extraction (features describe history).
	p.appendHist(lpn, x)
	p.hostLast[lpn] = uint32(now)
	if p.windowSeen[lpn] != p.windowEpoch {
		p.windowSeen[lpn] = p.windowEpoch
		p.windowLPNs = append(p.windowLPNs, lpn)
	}
	p.feat.NoteWrite(w.LPN)

	p.windowWrites++
	if p.windowWrites >= p.windowSize {
		p.endWindow(now)
	}

	if short && p.trainedOnce {
		return StreamUserShort, p.oobBuf
	}
	return StreamUserLong, p.oobBuf
}

// resolveLifetime is the host-side trainer bookkeeping for an invalidation
// (an overwrite or a trim) landing at now: the LPN's previous write, if any,
// lived until now, so its outstanding prediction is scored, its lifetime joins
// the window's threshold sample and its feature history becomes an example.
func (p *PHFTL) resolveLifetime(lpn uint32, now uint64) {
	hl := uint64(p.hostLast[lpn])
	if hl == 0 {
		return
	}
	life := float64(now - hl)
	if p.pred[lpn] != predNone {
		p.confusion.Add(p.pred[lpn] == predShort, life < p.predThresh[lpn])
		p.pred[lpn] = predNone
	}
	if hl >= p.windowStart {
		p.lifetimes = append(p.lifetimes, life)
	}
	p.addExample(lpn, life, false)
}

// PlaceGCWrite implements ftl.Separator: GC survivors are separated by GC
// count; their metadata travels in the per-page OOB copy, so no meta-page
// read is needed during GC (§III-C).
func (p *PHFTL) PlaceGCWrite(_ nand.LPN, oldOOB []byte, gcClass int, _ uint64) (int, []byte) {
	entry := DecodeEntry(oldOOB)
	p.pendingEntry = entry
	p.pendingValid = true
	p.oobBuf = EncodeEntry(p.oobBuf, entry)
	if gcClass < 1 {
		gcClass = 1
	}
	if gcClass > p.opts.GCStreams {
		gcClass = p.opts.GCStreams
	}
	return StreamGCBase + gcClass - 1, p.oobBuf
}

// OnPagePlaced implements ftl.Separator.
func (p *PHFTL) OnPagePlaced(_ nand.LPN, ppn nand.PPN, _ bool) {
	if p.pendingValid {
		p.meta.Put(ppn, p.pendingEntry)
		p.pendingValid = false
	}
}

// OnTrim implements ftl.TrimAware. A discard is a ground-truth invalidation:
// the trimmed write's lifetime resolves now (the trim counts as the LPN's
// next virtual write, matching trace.AnnotateLifetimes), so the trainer
// harvests the example and scores any outstanding prediction instead of
// leaving both dangling forever. The entry in the metadata store is zeroed
// and the host-side history reset, so a later reincarnation of the LPN
// cold-starts like a never-written page rather than inheriting the dead
// file's hidden state.
func (p *PHFTL) OnTrim(lpn nand.LPN, oldPPN nand.PPN, clock uint64) {
	l := uint32(lpn)
	p.resolveLifetime(l, clock+1)
	p.hostLast[l] = 0
	p.histN[l] = 0
	p.meta.Invalidate(oldPPN)
}

// OnUserRead implements ftl.Separator.
func (p *PHFTL) OnUserRead(lpn nand.LPN, _ int) { p.feat.NoteRead(lpn) }

// MetaPages implements ftl.Separator.
func (p *PHFTL) MetaPages(sb int) [][]byte { return p.meta.Seal(sb) }

// OnSuperblockErased implements ftl.Separator.
func (p *PHFTL) OnSuperblockErased(sb int) { p.meta.DropSB(sb) }

// addExample offers lpn's current history, labelled with lifetime, to the
// window's reservoir; a page without history offers nothing.
func (p *PHFTL) addExample(lpn uint32, lifetime float64, censored bool) {
	if p.histN[lpn] == 0 {
		return
	}
	p.examplesSeen++
	slot := len(p.examples)
	if p.opts.MaxExamples <= 0 || slot < p.opts.MaxExamples {
		p.examples = append(p.examples, example{})
	} else if slot = p.rng.Intn(p.examplesSeen); slot >= len(p.examples) {
		// Reservoir sampling keeps a uniform subset of the window's examples.
		return
	}
	stride := p.opts.SeqLen * rowBytes
	if end := (slot + 1) * stride; len(p.exRows) < end {
		p.exRows = append(p.exRows, make([]byte, end-len(p.exRows))...)
	}
	rows := p.copyHist(p.exRows[slot*stride:(slot+1)*stride], lpn)
	p.examples[slot] = example{rows: rows, lifetime: lifetime, censored: censored}
}

// decodeExamples expands into exSeqs the packed rows of the kept examples
// whose censored flag equals censored and whose lifetime is at least
// minLife. The window end calls it for what it reads: the resolved examples
// the threshold probes score, then the censored ones labelling keeps. The
// arena is sized by the reservoir's capacity, which append grows
// geometrically. Sized by the window's example count instead, it was
// reallocated whenever a window outgrew every earlier one: on #144 at
// 32 768 pages that took 4× the allocation per replayed page and 2× the
// peak RSS.
func (p *PHFTL) decodeExamples(censored bool, minLife float64) {
	seqLen := p.opts.SeqLen
	if need := cap(p.examples) * seqLen; len(p.exSeqs) < need {
		flat := make([]float64, need*InputDim)
		p.exSeqs = make([][]float64, need)
		for i := range p.exSeqs {
			p.exSeqs[i] = flat[i*InputDim : (i+1)*InputDim : (i+1)*InputDim]
		}
	}
	for i := range p.examples {
		ex := &p.examples[i]
		if ex.censored != censored || ex.lifetime < minLife {
			continue
		}
		for r := i * seqLen; r < i*seqLen+ex.rows; r++ {
			unpackRow(p.exSeqs[r], p.exRows[r*rowBytes:(r+1)*rowBytes])
		}
	}
}

// exampleSeq is example i's decoded history, oldest first (valid after the
// decodeExamples call that covers it, until the next window's).
func (p *PHFTL) exampleSeq(i int) [][]float64 {
	lo := i * p.opts.SeqLen
	hi := lo + p.examples[i].rows
	return p.exSeqs[lo:hi:hi]
}

// endWindow runs the Model Trainer: adaptive labeling (Algorithm 1), one
// training epoch, quantization, and deployment (§III-B).
func (p *PHFTL) endWindow(now uint64) {
	p.stats.Windows++

	// Censored examples: pages written in the window and not overwritten.
	// Iterate in sorted LPN order — insertion order would make training
	// depend on write order in ways the map-based predecessor of this code
	// avoided by sorting, so keep sorting.
	slices.Sort(p.windowLPNs)
	for _, lpn := range p.windowLPNs {
		hl := uint64(p.hostLast[lpn])
		if hl < p.windowStart {
			continue
		}
		elapsed := float64(now - hl)
		if elapsed <= 0 {
			continue
		}
		p.addExample(lpn, elapsed, true)
	}
	p.decodeExamples(false, 0)

	// Threshold probes rank candidates on *resolved* lifetime samples only:
	// censored pages (mostly long-living bulk data) would flood the
	// negative class and flatten the accuracy landscape the hill-climb
	// needs. The GRU's training set below keeps the censored examples —
	// without them the model would never see long-living feature patterns.
	probes := p.probeBuf[:0]
	for i := range p.examples {
		ex := &p.examples[i]
		if ex.censored {
			continue
		}
		seq := p.exampleSeq(i)
		probes = append(probes, probeSample{
			feat:     seq[len(seq)-1],
			lifetime: ex.lifetime,
		})
	}
	p.probeBuf = probes
	oldThreshold := p.threshold
	if t := p.adj.Pick(p.lifetimes, probes); t > 0 {
		p.threshold = t
	}
	if p.rec != nil {
		d := p.adj.LastDecision()
		seeded := int64(0)
		if d.Seeded {
			seeded = 1
		}
		p.rec.Record(obs.Event{
			Kind: obs.KindThresholdUpdate, Clock: now,
			SB: -1, Stream: -1, GCClass: -1,
			A: int64(d.Direction), B: int64(d.Step), C: seeded,
			F0: oldThreshold, F1: p.threshold, F2: d.ProbeAccuracy,
		})
	}

	if p.threshold > 0 {
		p.decodeExamples(true, p.threshold)
		labeled := p.sampleBuf[:0]
		for i := range p.examples {
			ex := &p.examples[i]
			if ex.censored && ex.lifetime < p.threshold {
				continue // unknowable: might still die before the threshold
			}
			label := 0
			if ex.lifetime < p.threshold {
				label = 1
			}
			labeled = append(labeled, ml.Sample{Seq: p.exampleSeq(i), Label: label})
		}
		p.sampleBuf = labeled
		samples := p.resample.Resample(labeled, 0, p.opts.Seed+int64(p.stats.Windows))
		deployed := int64(0)
		if len(samples) >= 8 {
			cfg := p.opts.Train
			cfg.Seed = p.opts.Seed + int64(p.stats.Windows)
			p.stats.LastTrainLoss = p.trainer.Train(p.model, samples, p.opt, cfg)
			p.stats.TrainedExamples += uint64(len(samples))
			// Deploy in place: copy (and optionally quantize) the trained
			// weights into the device-side model rather than allocating a
			// fresh one. Both were built from one constructor, so a refusal
			// is an internal fault, surfaced through Err.
			if !ml.SyncModel(p.deployed, p.model, p.opts.Quantize) && p.err == nil {
				p.err = errors.New("core: trained model cannot be deployed onto the device-side model")
			}
			p.trainedOnce = true
			p.deployClock = now
			p.stats.Deploys++
			deployed = 1
		}
		if p.rec != nil {
			p.rec.Record(obs.Event{
				Kind: obs.KindWindowRetrain, Clock: now,
				SB: -1, Stream: -1, GCClass: -1,
				A: int64(len(samples)), B: deployed,
				F0: p.stats.LastTrainLoss, F1: p.threshold,
			})
		}
	}

	p.windowStart = now + 1
	p.windowWrites = 0
	p.lifetimes = p.lifetimes[:0]
	p.examples = p.examples[:0]
	p.examplesSeen = 0
	p.windowLPNs = p.windowLPNs[:0]
	if p.windowEpoch++; p.windowEpoch == 0 {
		clear(p.windowSeen)
		p.windowEpoch = 1
	}
	p.feat.Decay()
}

// Finish resolves outstanding predictions at end of run: pages never
// overwritten whose elapsed time exceeds their prediction-time threshold are
// ground-truth long-living; the rest are right-censored and skipped.
func (p *PHFTL) Finish(finalClock uint64) {
	for lpn := range p.pred {
		if p.pred[lpn] == predNone {
			continue
		}
		elapsed := float64(finalClock + 1 - uint64(p.hostLast[lpn]))
		if elapsed >= p.predThresh[lpn] {
			p.confusion.Add(p.pred[lpn] == predShort, false)
		}
		p.pred[lpn] = predNone
	}
}
