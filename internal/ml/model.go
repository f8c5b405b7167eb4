package ml

import "math/rand"

// Net is PHFTL's Page Classifier network (Figure 3): a per-architecture cell
// followed by one fully connected layer to NumClasses output neurons; argmax
// of the logits is the prediction. The paper settled on a single-layer GRU
// after "exploring a wide variety of machine learning models" (§III-B); the
// LSTM and MLP cells reproduce that design-space exploration (see
// BenchmarkAblationModelArch). All three share the head, cloning,
// quantization, prediction and training code below.
//
// A network carries a persistent per-page state of StateSize float64 values,
// bounded in (−1,1) so it can be cached as int8 in the flash metadata entry.
// The head reads the state's first hidden-size values.
type Net struct {
	cell       cell
	wout, bout *Tensor
	params     []*Tensor // cell tensors in init order, then wout, bout

	// Per-instance scratch: the logits, the softmax gradient and the
	// gradient w.r.t. the head input, so steady-state prediction and
	// training perform zero heap allocations. Not shared across goroutines
	// — a network is single-owner, like its gradients.
	logits, probs, dh []float64
}

// cell is one architecture's recurrence under Net's head.
type cell interface {
	// params returns the cell's learnable tensors in initialization order.
	params() []*Tensor
	// stateSize is the number of persisted state values per page.
	stateSize() int
	// step advances the state by one input, writing stateOut (which may
	// alias statePrev). It must not heap-allocate in steady state.
	step(statePrev, x, stateOut []float64)
	// reserve sizes the cell-owned storage forward and backward use for
	// sequences of up to steps steps; forward grows it if a longer one
	// arrives.
	reserve(steps int)
	// forward runs a sequence from the zero state, keeping the values
	// backward needs in cell-owned storage (the GRU's and LSTM's per-step
	// matrices, which reserve sizes), and returns the head input of the
	// final step (also cell-owned).
	forward(seq [][]float64) []float64
	// backward backpropagates dh, the gradient w.r.t. forward's result,
	// through the traces of the last forward, accumulating parameter
	// gradients. It may overwrite dh.
	backward(dh []float64)
	// with returns a copy of the cell whose tensors are f of the receiver's,
	// with fresh scratch.
	with(f func(*Tensor) *Tensor) cell
}

// NumClassesDefault is the binary short-living / long-living output of the
// paper's classifier.
const NumClassesDefault = 2

// newNet puts c under a classes×hidden head and Xavier-initializes every
// parameter in Params order.
func newNet(c cell, hidden, classes int, rng *rand.Rand) *Net {
	n := assemble(c, NewTensor(classes, hidden), NewTensor(1, classes))
	for _, t := range n.params {
		t.InitXavier(rng)
	}
	return n
}

func assemble(c cell, wout, bout *Tensor) *Net {
	return &Net{
		cell: c, wout: wout, bout: bout,
		params: append(c.params(), wout, bout),
		logits: make([]float64, wout.Rows),
		probs:  make([]float64, wout.Rows),
		dh:     make([]float64, wout.Cols),
	}
}

// with returns a network whose tensors are f of the receiver's.
func (n *Net) with(f func(*Tensor) *Tensor) *Net {
	return assemble(n.cell.with(f), f(n.wout), f(n.bout))
}

// Params returns every learnable tensor (for the optimizer).
func (n *Net) Params() []*Tensor { return n.params }

// ZeroGrad clears all parameter gradients.
func (n *Net) ZeroGrad() {
	for _, t := range n.params {
		t.ZeroGrad()
	}
}

// StateSize returns the number of persisted state values per page.
func (n *Net) StateSize() int { return n.cell.stateSize() }

// CloneModel returns an independent deep copy (gradients zeroed).
func (n *Net) CloneModel() *Net { return n.with((*Tensor).Clone) }

// ShadowClone returns a gradient shadow of the network: weights are shared
// with the receiver (Tensor.Shadow), gradients and scratch are private.
// Shadows support concurrent AccumulateGradients against frozen weights;
// they must not be trained directly (their weights alias the original's).
func (n *Net) ShadowClone() *Net { return n.with((*Tensor).Shadow) }

// QuantizeModel returns a copy with every parameter snapped onto the int8
// grid. Inference through the returned network is numerically identical to
// integer inference with dequantize-on-use, so the accuracy delta it exhibits
// is exactly the deployment quantization loss.
func (n *Net) QuantizeModel() *Net {
	return n.with(func(t *Tensor) *Tensor {
		q := t.Clone()
		QuantizeTensor(q)
		return q
	})
}

// StepState advances the persistent state by one input, writing StateSize
// values into stateOut (which may alias statePrev). This is the O(1)
// incremental prediction path of §III-C: with the state cached per page, a
// prediction costs exactly one StepState plus one LogitsFromState call,
// regardless of how long the page's history is.
func (n *Net) StepState(statePrev, x, stateOut []float64) { n.cell.step(statePrev, x, stateOut) }

// LogitsFromState applies the fully connected output layer to a state. The
// returned slice is network-owned scratch, overwritten by the next call: use
// it before the next call, or copy it.
func (n *Net) LogitsFromState(state []float64) []float64 {
	out := n.logits
	matVec(n.wout, state, out)
	for i := range out {
		out[i] += n.bout.data[i]
	}
	return out
}

// PredictInto is the allocation-free incremental prediction: one step from
// statePrev writing the new state into stateOut (which may alias statePrev),
// returning the argmax class. This is the device-side per-write hot path
// (§III-C, 9 µs prediction budget).
func (n *Net) PredictInto(statePrev, x, stateOut []float64) int {
	n.cell.step(statePrev, x, stateOut)
	return Argmax(n.LogitsFromState(stateOut))
}

// Predict runs a full sequence from the zero state and returns the argmax
// class of the final step.
func (n *Net) Predict(seq [][]float64) int {
	state := make([]float64, n.StateSize())
	for _, x := range seq {
		n.cell.step(state, x, state)
	}
	return Argmax(n.LogitsFromState(state))
}

// AccumulateGradients runs forward + backpropagation through time for one
// labeled sequence, accumulating parameter gradients, and returns the
// sample loss.
func (n *Net) AccumulateGradients(seq [][]float64, label int) float64 {
	h := n.cell.forward(seq)
	loss, dLogits := SoftmaxCrossEntropyInto(n.LogitsFromState(h), label, n.probs)
	outerAddGradSeq(n.wout, dLogits, h, 1)
	addGrad(n.bout, dLogits)
	clear(n.dh)
	matTVecAdd(n.wout, dLogits, n.dh)
	n.cell.backward(n.dh)
	return loss
}

// Argmax returns the index of the largest element.
func Argmax(v []float64) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// SyncModel copies src's parameters into dst in place, optionally snapping
// them onto the int8 grid, and reports whether the models were compatible
// (same parameter shapes). A successful SyncModel(dst, src, true) leaves dst
// numerically identical to src.QuantizeModel() — and SyncModel(dst, src,
// false) to src.CloneModel() — without allocating a fresh model, which is
// what keeps PHFTL's per-window deployment off the heap.
func SyncModel(dst, src *Net, quantize bool) bool {
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
		if len(d.data) > 0 && &d.data[0] == &s.data[0] {
			return false
		}
	}
	for i, s := range sp {
		d := dp[i]
		d.update(func(w []float64) { copy(w, s.data) })
		if quantize {
			QuantizeTensor(d)
		}
	}
	return true
}

// TrainModel trains a network in place on the samples with Adam and returns
// the mean loss of the final epoch. The program trains through
// ShardedTrainer; this single-fold schedule is the reference its tests
// compare against.
func TrainModel(m *Net, samples []Sample, opt *Adam, cfg TrainConfig) float64 {
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
		// The loss is summed per batch, then batch by batch, as
		// ShardedTrainer sums it: one shard's sum is its batch's.
		total, batchLoss := 0.0, 0.0
		inBatch := 0
		m.ZeroGrad()
		for _, idx := range order {
			s := samples[idx]
			if len(s.Seq) == 0 {
				continue
			}
			batchLoss += m.AccumulateGradients(s.Seq, s.Label)
			inBatch++
			if inBatch == batch {
				total += batchLoss
				opt.Update(m.Params(), inBatch)
				m.ZeroGrad()
				batchLoss, inBatch = 0, 0
			}
		}
		if inBatch > 0 {
			total += batchLoss
			opt.Update(m.Params(), inBatch)
			m.ZeroGrad()
		}
		lastLoss = total / float64(len(order))
	}
	return lastLoss
}

// EvalModelAccuracy returns the fraction of samples classified correctly.
func EvalModelAccuracy(m *Net, samples []Sample) float64 {
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
