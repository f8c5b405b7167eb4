package ml

// SequenceModel is the interface PHFTL's Page Classifier programs against,
// abstracting the model architecture. The paper settled on a single-layer
// GRU after "exploring a wide variety of machine learning models" (§III-B);
// the LSTM and MLP implementations reproduce that design-space exploration
// (see BenchmarkAblationModelArch).
//
// A model carries a persistent per-page state of StateSize float64 values
// (bounded in (−1,1) so it can be cached as int8 in the flash metadata
// entry). Stateless models report StateSize 0 behaviour by ignoring the
// state.
type SequenceModel interface {
	// InputSize returns the feature-vector width.
	InputSize() int
	// StateSize returns the number of persisted state values per page.
	StateSize() int
	// NumOutputs returns the number of classes.
	NumOutputs() int

	// StepState advances the persistent state by one input, writing
	// StateSize values into stateOut (which may alias statePrev). It must
	// not heap-allocate in steady state.
	StepState(statePrev, x, stateOut []float64)
	// LogitsFromState computes class logits from a state. The returned
	// slice is model-owned scratch, overwritten by the next call: use it
	// before the next call, or copy it.
	LogitsFromState(state []float64) []float64
	// PredictFrom advances one step from a cached state and returns
	// (argmax class, new state). It allocates the returned state; the
	// per-write hot path uses PredictInto instead.
	PredictFrom(statePrev, x []float64) (int, []float64)
	// PredictInto advances one step from statePrev, writing the new state
	// into stateOut (which may alias statePrev), and returns the argmax
	// class. It must not heap-allocate in steady state — this is the
	// device-side per-write hot path (§III-C, 9 µs prediction budget).
	PredictInto(statePrev, x, stateOut []float64) int
	// Predict runs a whole sequence from the zero state.
	Predict(seq [][]float64) int

	// AccumulateGradients runs forward + backward for one labeled sequence,
	// accumulating parameter gradients, and returns the sample loss.
	AccumulateGradients(seq [][]float64, label int) float64

	// Params exposes the learnable tensors for the optimizer.
	Params() []*Tensor
	// ZeroGrad clears accumulated gradients.
	ZeroGrad()
	// CloneModel returns an independent deep copy.
	CloneModel() SequenceModel
	// QuantizeModel returns a copy with parameters snapped to the int8 grid.
	QuantizeModel() SequenceModel
	// ShadowClone returns a gradient shadow of the model: weights are shared
	// with the receiver (Tensor.Shadow), gradients and scratch are private.
	// Shadows support concurrent AccumulateGradients against frozen weights;
	// they must not be trained directly (their Data aliases the original's).
	ShadowClone() SequenceModel
}

// Compile-time conformance.
var (
	_ SequenceModel = (*GRUNet)(nil)
	_ SequenceModel = (*LSTMNet)(nil)
	_ SequenceModel = (*MLPNet)(nil)
)

// SyncModel copies src's parameters into dst in place, optionally snapping
// them onto the int8 grid, and reports whether the models were compatible
// (same parameter shapes). A successful SyncModel(dst, src, true) leaves dst
// numerically identical to src.QuantizeModel() — and SyncModel(dst, src,
// false) to src.CloneModel() — without allocating a fresh model, which is
// what keeps PHFTL's per-window deployment off the heap.
func SyncModel(dst, src SequenceModel, quantize bool) bool {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return false
	}
	for i, s := range sp {
		d := dp[i]
		if d.Rows != s.Rows || d.Cols != s.Cols {
			return false
		}
		// A shadow of src must never be synced: quantizing it in place would
		// corrupt src's own weights through the shared backing array.
		if len(d.Data) > 0 && &d.Data[0] == &s.Data[0] {
			return false
		}
	}
	for i, s := range sp {
		d := dp[i]
		copy(d.Data, s.Data)
		if quantize {
			QuantizeTensor(d)
		}
	}
	return true
}

// TrainModel trains any SequenceModel in place on the samples with Adam and
// returns the mean loss of the final epoch. The program trains through
// ShardedTrainer; this single-fold schedule is the reference its tests
// compare against.
func TrainModel(m SequenceModel, samples []Sample, opt *Adam, cfg TrainConfig) float64 {
	if len(samples) == 0 {
		return 0
	}
	rng := newShuffler(cfg.Seed, len(samples))
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	lastLoss := 0.0
	for e := 0; e < epochs; e++ {
		order := rng.order()
		total := 0.0
		inBatch := 0
		m.ZeroGrad()
		for _, idx := range order {
			s := samples[idx]
			if len(s.Seq) == 0 {
				continue
			}
			total += m.AccumulateGradients(s.Seq, s.Label)
			inBatch++
			if inBatch == batch {
				opt.Update(m.Params(), inBatch)
				m.ZeroGrad()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.Update(m.Params(), inBatch)
			m.ZeroGrad()
		}
		lastLoss = total / float64(len(order))
	}
	return lastLoss
}

// EvalModelAccuracy returns the fraction of samples classified correctly.
func EvalModelAccuracy(m SequenceModel, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if m.Predict(s.Seq) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// shuffler produces fresh permutations per epoch, deterministically.
type shuffler struct {
	rng *randSource
	ord []int
}

func newShuffler(seed int64, n int) *shuffler {
	s := &shuffler{rng: newRandSource(seed), ord: make([]int, n)}
	s.reset(seed, n)
	return s
}

// reset restores the shuffler to the state of newShuffler(seed, n), reusing
// its buffers: the identity order and a freshly-seeded stream. Pooled callers
// (ShardedTrainer) use this to train every window without reallocating.
func (s *shuffler) reset(seed int64, n int) {
	s.rng.reseed(seed)
	if cap(s.ord) < n {
		s.ord = make([]int, n)
	}
	s.ord = s.ord[:n]
	for i := range s.ord {
		s.ord[i] = i
	}
}

func (s *shuffler) order() []int {
	s.rng.shuffle(len(s.ord), func(i, j int) { s.ord[i], s.ord[j] = s.ord[j], s.ord[i] })
	return s.ord
}
