package ml

import (
	"math"
	"math/rand"
	"testing"
)

// cells lists the three architectures behind Net, for the tests that hold
// for every one of them.
var cells = []struct {
	name string
	make func(in, hidden, classes int, rng *rand.Rand) *Net
}{
	{"GRU", NewGRUNet},
	{"LSTM", NewLSTMNet},
	{"MLP", NewMLPNet},
}

func randSeq(rng *rand.Rand, steps, dim int) [][]float64 {
	seq := make([][]float64, steps)
	for i := range seq {
		seq[i] = make([]float64, dim)
		for j := range seq[i] {
			seq[i][j] = rng.Float64()*2 - 1
		}
	}
	return seq
}

// TestGradientCheck verifies each cell's hand-written backpropagation
// through time, and the shared head's, against central differences on every
// parameter tensor. This is the load-bearing correctness test for the whole
// training stack. It runs at a tiny shape, which the Go loops compute, and at
// the production shape (InputDim 20 → Hidden 32, the "-20x32" subtests),
// which the AVX2 kernels compute where the host has them.
func TestGradientCheck(t *testing.T) {
	for _, shape := range []struct {
		suffix     string
		in, hidden int
	}{{"", 3, 4}, {"-20x32", 20, 32}} {
		for _, tc := range cells {
			t.Run(tc.name+shape.suffix, func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				n := tc.make(shape.in, shape.hidden, 2, rng)
				seq := randSeq(rng, 4, shape.in)
				const label = 1
				// A first pass leaves the reused trace arena and backward
				// buffers dirty, as every sample after the first finds them.
				n.AccumulateGradients(seq, label)
				n.ZeroGrad()
				n.AccumulateGradients(seq, label)
				probe := n.CloneModel()
				for ti, tensor := range n.Params() {
					pt := probe.Params()[ti]
					for idx := 0; idx < len(tensor.data); idx += 3 { // every 3rd element
						const eps = 1e-5
						orig := pt.data[idx]
						poke := func(v float64) { pt.update(func(w []float64) { w[idx] = v }) }
						poke(orig + eps)
						plus := probe.AccumulateGradients(seq, label)
						poke(orig - eps)
						minus := probe.AccumulateGradients(seq, label)
						poke(orig)
						want := (plus - minus) / (2 * eps)
						got := tensor.Grad[idx]
						if diff := math.Abs(got - want); diff > 1e-6+1e-4*math.Abs(want) {
							t.Fatalf("param %d elem %d: analytic %g vs numeric %g (diff %g)", ti, idx, got, want, diff)
						}
					}
				}
			})
		}
	}
}

// TestIncrementalMatchesFullSequence pins the O(1) prediction path (cached
// state + one PredictInto step) against re-running the whole sequence from
// the zero state, and the training forward pass against the inference step:
// forward's head input must equal the incremental state's, bit for bit.
func TestIncrementalMatchesFullSequence(t *testing.T) {
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			n := tc.make(4, 6, 2, rng)
			state := make([]float64, n.StateSize())
			var seq [][]float64
			for step := 0; step < 10; step++ {
				x := randSeq(rng, 1, 4)[0]
				seq = append(seq, x)
				full := n.Predict(seq)
				if incr := n.PredictInto(state, x, state); incr != full {
					t.Fatalf("step %d: full-sequence %d vs incremental %d", step, full, incr)
				}
				for i, v := range n.cell.forward(seq) {
					if math.Float64bits(v) != math.Float64bits(state[i]) {
						t.Fatalf("step %d: forward h[%d] = %v, step state %v", step, i, v, state[i])
					}
				}
			}
		})
	}
}

// TestCloneIsDeep: CloneModel shares no weight or gradient storage.
func TestCloneIsDeep(t *testing.T) {
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.make(2, 3, 2, rand.New(rand.NewSource(13)))
			c := n.CloneModel()
			cp := c.Params()
			for i, p := range n.Params() {
				p.Set(0, 0, 999)
				p.Grad[0] = 999
				if cp[i].data[0] == 999 || cp[i].Grad[0] == 999 {
					t.Fatalf("param %d: clone shares storage", i)
				}
			}
		})
	}
}

// TestShadowCloneSharesWeightsPrivatelyGrads pins the Shadow contract the
// sharded trainer relies on, and SyncModel's refusal to sync from a shadow.
func TestShadowCloneSharesWeightsPrivatelyGrads(t *testing.T) {
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.make(8, 12, NumClassesDefault, rand.New(rand.NewSource(7)))
			sh := m.ShadowClone()
			mp, sp := m.Params(), sh.Params()
			if len(mp) != len(sp) {
				t.Fatalf("param count mismatch: %d vs %d", len(mp), len(sp))
			}
			for i := range mp {
				if &mp[i].data[0] != &sp[i].data[0] {
					t.Fatalf("param %d: shadow does not share data", i)
				}
				if &mp[i].Grad[0] == &sp[i].Grad[0] {
					t.Fatalf("param %d: shadow shares Grad", i)
				}
			}
			if SyncModel(m, sh, true) {
				t.Fatal("SyncModel must refuse to quantize a model from its own shadow")
			}
		})
	}
}

// TestQuantizeModelMatchesSync pins SyncModel's contract: syncing into an
// existing network gives exactly the weights of QuantizeModel (quantize) or
// CloneModel (not), so PHFTL's in-place deployment equals a fresh one.
func TestQuantizeModelMatchesSync(t *testing.T) {
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.make(5, 6, 2, rand.New(rand.NewSource(14)))
			for _, quantize := range []bool{true, false} {
				want := src.CloneModel()
				if quantize {
					want = src.QuantizeModel()
				}
				dst := tc.make(5, 6, 2, rand.New(rand.NewSource(15)))
				if !SyncModel(dst, src, quantize) {
					t.Fatal("SyncModel refused a same-shape network")
				}
				wp := want.Params()
				for i, p := range dst.Params() {
					for j, v := range p.data {
						if math.Float64bits(v) != math.Float64bits(wp[i].data[j]) {
							t.Fatalf("quantize=%v param %d elem %d: sync %v, fresh %v", quantize, i, j, v, wp[i].data[j])
						}
					}
				}
			}
			if SyncModel(tc.make(5, 7, 2, rand.New(rand.NewSource(16))), src, true) {
				t.Fatal("SyncModel accepted a different hidden size")
			}
		})
	}
}

// TestModelsLearnSequenceTask compares the three architectures on the
// sum-over-time task: the recurrent models must learn it; the stateless MLP
// (which sees only the last step) cannot — reproducing why the paper's
// design iterations favoured sequence models (§III-B, §V-C).
func TestModelsLearnSequenceTask(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	makeSample := func() Sample {
		l := 3 + rng.Intn(5)
		seq := make([][]float64, l)
		sum := 0.0
		for i := range seq {
			v := rng.Float64()*2 - 1
			sum += v
			seq[i] = []float64{v, rng.Float64()}
		}
		label := 0
		if sum > 0 {
			label = 1
		}
		return Sample{Seq: seq, Label: label}
	}
	var train, test []Sample
	for i := 0; i < 500; i++ {
		train = append(train, makeSample())
	}
	for i := 0; i < 200; i++ {
		test = append(test, makeSample())
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 12
	accOf := func(m *Net) float64 {
		TrainModel(m, train, NewAdam(0.01), cfg)
		return EvalModelAccuracy(m, test)
	}
	gru := accOf(NewGRUNet(2, 12, 2, rand.New(rand.NewSource(1))))
	lstm := accOf(NewLSTMNet(2, 12, 2, rand.New(rand.NewSource(2))))
	mlp := accOf(NewMLPNet(2, 12, 2, rand.New(rand.NewSource(3))))
	t.Logf("accuracy: gru=%.3f lstm=%.3f mlp=%.3f", gru, lstm, mlp)
	if gru < 0.85 {
		t.Errorf("GRU accuracy %.3f < 0.85", gru)
	}
	if lstm < 0.80 {
		t.Errorf("LSTM accuracy %.3f < 0.80", lstm)
	}
	if mlp > 0.75 {
		t.Errorf("stateless MLP accuracy %.3f unexpectedly high on a memory task", mlp)
	}
	if mlp > gru || mlp > lstm {
		t.Error("MLP should not beat the recurrent models on a memory task")
	}
}

func TestQuantizeModelVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, m := range []*Net{
		NewLSTMNet(4, 6, 2, rng),
		NewMLPNet(4, 6, 2, rng),
	} {
		q := m.QuantizeModel()
		if q.StateSize() != m.StateSize() || q.Params()[0].Cols != m.Params()[0].Cols {
			t.Errorf("quantized model changed shape")
		}
		// Quantization is idempotent on the grid.
		for i, tensor := range q.Params() {
			before := append([]float64(nil), tensor.data...)
			QuantizeTensor(q.Params()[i])
			for j := range before {
				if math.Abs(before[j]-q.Params()[i].data[j]) > 1e-9 {
					t.Fatalf("quantization not idempotent at %d/%d", i, j)
					break
				}
			}
		}
	}
}

func TestGRUStepBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewGRUNet(5, 8, 2, rng)
	h := make([]float64, 8)
	for step := 0; step < 200; step++ {
		n.StepState(h, randSeq(rng, 1, 5)[0], h)
		for i, v := range h {
			if v <= -1 || v >= 1 || math.IsNaN(v) {
				t.Fatalf("step %d: h[%d] = %v escaped (-1,1)", step, i, v)
			}
		}
	}
}

func TestLSTMStateBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := NewLSTMNet(5, 8, 2, rng)
	state := make([]float64, n.StateSize())
	for step := 0; step < 300; step++ {
		n.StepState(state, randSeq(rng, 1, 5)[0], state)
		for i, v := range state {
			if v <= -1 || v >= 1 || math.IsNaN(v) {
				t.Fatalf("step %d: state[%d] = %v escaped (-1,1)", step, i, v)
			}
		}
	}
}

// TestEmptySequenceIsZeroState pins AccumulateGradients on the empty
// sequence for every cell family: the head sees the zero state, the loss is
// that state's, and no cell parameter receives a gradient. The trace arenas
// are dirtied by a real sequence first.
func TestEmptySequenceIsZeroState(t *testing.T) {
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			n := tc.make(3, 4, 2, rng)
			n.AccumulateGradients(randSeq(rng, 3, 3), 0)
			n.ZeroGrad()
			const label = 1
			loss := n.AccumulateGradients(nil, label)
			want, _ := SoftmaxCrossEntropyInto(n.LogitsFromState(make([]float64, n.wout.Cols)), label, make([]float64, 2))
			if loss != want {
				t.Errorf("loss %v, want the zero state's %v", loss, want)
			}
			for i, p := range n.Params()[:len(n.Params())-1] { // all but the output bias
				for j, g := range p.Grad {
					if g != 0 {
						t.Fatalf("param %d elem %d: gradient %v from the empty sequence", i, j, g)
					}
				}
			}
		})
	}
}

func TestMLPIgnoresHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := NewMLPNet(2, 4, 2, rng)
	last := []float64{0.3, 0.9}
	a := n.Predict([][]float64{{1, 1}, {0, 0}, last})
	b := n.Predict([][]float64{last})
	if a != b {
		t.Error("MLP prediction depends on history")
	}
}

// netBits runs n on one kernel path: PredictInto over seq from the zero
// state, then AccumulateGradients on seq into zeroed gradients. It returns
// every state, class, the loss and every gradient as bits.
func netBits(t *testing.T, n *Net, seq [][]float64, simd bool) []uint64 {
	var out []uint64
	withPath(t, simd, func() {
		state := make([]float64, n.StateSize())
		for _, x := range seq {
			out = append(out, uint64(n.PredictInto(state, x, state)))
			for _, v := range state {
				out = append(out, math.Float64bits(v))
			}
		}
		n.ZeroGrad()
		out = append(out, math.Float64bits(n.AccumulateGradients(seq, 1)))
		for _, p := range n.Params() {
			for _, g := range p.Grad {
				out = append(out, math.Float64bits(g))
			}
		}
	})
	return out
}

// TestWeightWritersKeepPacksFresh builds each network at the production
// shape through every constructor and every writer of its weights, and
// requires PredictInto and AccumulateGradients to give the Go loops' bits
// on the AVX2 kernels. The forward kernels read the packed copy of the
// weights and the Go loops the row-major one, so a writer that left the
// packed copy stale fails here.
func TestWeightWritersKeepPacksFresh(t *testing.T) {
	if !simdHost {
		t.Skip("no AVX2 kernels on this host")
	}
	const in, hidden = 20, 32
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			seq := randSeq(rng, 6, in)
			samples := shardedTestSamples(80, in, 22)
			newNet := func(seed int64) *Net { return tc.make(in, hidden, 2, rand.New(rand.NewSource(seed))) }

			src := newNet(1)
			nets := []struct {
				name  string
				build func() *Net
			}{
				{"constructor", func() *Net { return newNet(2) }},
				{"CloneModel", src.CloneModel},
				{"QuantizeModel", src.QuantizeModel},
				{"SyncModel/quantize", func() *Net {
					dst := newNet(3)
					SyncModel(dst, src, true)
					return dst
				}},
				{"SyncModel/copy", func() *Net {
					dst := newNet(3)
					SyncModel(dst, src, false)
					return dst
				}},
				{"ShardedTrainer", func() *Net {
					m := newNet(4)
					NewShardedTrainer(4).Train(m, samples, NewAdam(0.05), DefaultTrainConfig())
					return m
				}},
				{"TrainModel", func() *Net {
					m := newNet(5)
					TrainModel(m, samples, NewAdam(0.05), DefaultTrainConfig())
					return m
				}},
				{"ShadowClone of a trained master", func() *Net {
					m := newNet(6)
					sh := m.ShadowClone()
					TrainModel(m, samples, NewAdam(0.05), DefaultTrainConfig())
					return sh
				}},
				{"poke", func() *Net {
					m := newNet(7)
					for _, p := range m.Params() {
						idx := len(p.data) / 3
						p.update(func(w []float64) { w[idx] += 0.5 })
					}
					return m
				}},
				{"Set", func() *Net {
					m := newNet(8)
					for _, p := range m.Params() {
						p.Set(p.Rows-1, p.Cols/2, -0.75)
					}
					return m
				}},
			}
			for _, b := range nets {
				n := b.build()
				want, got := netBits(t, n, seq, false), netBits(t, n, seq, true)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s: value %d is %#x on the AVX2 kernels, %#x on the Go loops", b.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}
