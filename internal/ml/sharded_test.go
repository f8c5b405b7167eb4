package ml

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func shardedTestSamples(n, dim int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]Sample, n)
	for i := range samples {
		seqLen := rng.Intn(6) // includes empty sequences, which training skips
		seq := make([][]float64, seqLen)
		for j := range seq {
			x := make([]float64, dim)
			for k := range x {
				x[k] = rng.Float64()
			}
			seq[j] = x
		}
		samples[i] = Sample{Seq: seq, Label: rng.Intn(2)}
	}
	return samples
}

func freshGRU(dim int) *Net {
	return NewGRUNet(dim, 12, NumClassesDefault, rand.New(rand.NewSource(7)))
}

func freshMLP(dim int) *Net {
	return NewMLPNet(dim, 12, NumClassesDefault, rand.New(rand.NewSource(7)))
}

func weightsBits(m *Net) [][]uint64 {
	params := m.Params()
	out := make([][]uint64, len(params))
	for i, p := range params {
		bits := make([]uint64, len(p.data))
		for j, v := range p.data {
			bits[j] = math.Float64bits(v)
		}
		out[i] = bits
	}
	return out
}

func requireSameWeights(t *testing.T, want, got [][]uint64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: param count %d != %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("%s: param %d element %d differs: %x != %x",
					label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestShardedTrainerPoolInvariance pins the tentpole determinism contract:
// deployed weights depend only on the shard count, never on the worker count,
// so serial training, SetWorkers(2/3/4, or a count past the shard count) and
// the GOMAXPROCS-derived default yield bit-identical weights. The pinned-4
// row at GOMAXPROCS 1 runs more lanes than Ps, the pool's park-at-once path.
func TestShardedTrainerPoolInvariance(t *testing.T) {
	const dim = 8
	samples := shardedTestSamples(120, dim, 42)
	cfg := TrainConfig{Epochs: 2, BatchSize: 32, LR: 0.01, Seed: 3}
	rows := []struct {
		procs   int // GOMAXPROCS during Train; 0 leaves it alone
		workers int // SetWorkers pin; 0 keeps the derived default
	}{
		{0, 2}, {0, 3}, {0, 4}, {0, 1 << 14},
		{1, 0}, {2, 0}, {4, 0},
		{1, 4},
	}

	for name, fresh := range map[string]func(int) *Net{"gru": freshGRU, "mlp": freshMLP} {
		t.Run(name, func(t *testing.T) {
			ref := fresh(dim)
			refTrainer := NewShardedTrainer(4)
			refTrainer.SetWorkers(1)
			refLoss := refTrainer.Train(ref, samples, NewAdam(cfg.LR), cfg)
			want := weightsBits(ref)

			for _, row := range rows {
				m := fresh(dim)
				tr := NewShardedTrainer(4)
				if row.workers > 0 {
					tr.SetWorkers(row.workers)
				}
				prev := runtime.GOMAXPROCS(row.procs) // 0 only reads it
				loss := tr.Train(m, samples, NewAdam(cfg.LR), cfg)
				runtime.GOMAXPROCS(prev)
				label := fmt.Sprintf("GOMAXPROCS=%d workers=%d", row.procs, row.workers)
				if math.Float64bits(loss) != math.Float64bits(refLoss) {
					t.Fatalf("%s: loss %v != serial loss %v", label, loss, refLoss)
				}
				requireSameWeights(t, want, weightsBits(m), label)
			}
		})
	}
}

// TestShardedTrainerSingleLaneMatchesTrainModel pins that Lanes=1 reproduces
// TrainModel exactly: a single shard accumulates in shuffled sample order and
// reduces into zeroed master gradients, which cannot change any bit.
func TestShardedTrainerSingleLaneMatchesTrainModel(t *testing.T) {
	const dim = 8
	samples := shardedTestSamples(90, dim, 11)
	cfg := TrainConfig{Epochs: 3, BatchSize: 16, LR: 0.02, Seed: 5}

	ref := freshGRU(dim)
	refLoss := TrainModel(ref, samples, NewAdam(cfg.LR), cfg)

	m := freshGRU(dim)
	loss := NewShardedTrainer(1).Train(m, samples, NewAdam(cfg.LR), cfg)

	if math.Float64bits(loss) != math.Float64bits(refLoss) {
		t.Fatalf("loss %v != TrainModel loss %v", loss, refLoss)
	}
	requireSameWeights(t, weightsBits(ref), weightsBits(m), "lanes=1 vs TrainModel")
}

// TestShardedTrainerReuseAcrossWindows exercises the pooled path PHFTL uses:
// the same trainer instance trains successive windows (different sample sets
// and seeds) and must behave exactly like a fresh trainer each time.
func TestShardedTrainerReuseAcrossWindows(t *testing.T) {
	const dim = 8
	reused := NewShardedTrainer(4)
	mReused := freshGRU(dim)
	mFresh := freshGRU(dim)
	optReused, optFresh := NewAdam(0.01), NewAdam(0.01)
	for w := 0; w < 3; w++ {
		samples := shardedTestSamples(60+10*w, dim, int64(100+w))
		cfg := TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.01, Seed: int64(w)}
		lossReused := reused.Train(mReused, samples, optReused, cfg)
		lossFresh := NewShardedTrainer(4).Train(mFresh, samples, optFresh, cfg)
		if math.Float64bits(lossReused) != math.Float64bits(lossFresh) {
			t.Fatalf("window %d: reused loss %v != fresh loss %v", w, lossReused, lossFresh)
		}
		requireSameWeights(t, weightsBits(mFresh), weightsBits(mReused), "trainer reuse")
	}
}

// TestShardedTrainerSIMDMatchesGo trains each cell at the production shape
// (InputDim 20 → Hidden 32) over several windows with one reused trainer,
// once on the AVX2 kernels and once on the Go loops, and requires
// bit-identical losses and weights after every window.
func TestShardedTrainerSIMDMatchesGo(t *testing.T) {
	const dim, hidden, windows = 20, 32, 3
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			var losses [2][windows]uint64
			var weights [2][windows][][]uint64
			for i, simd := range []bool{false, true} {
				withPath(t, simd, func() {
					m := tc.make(dim, hidden, NumClassesDefault, rand.New(rand.NewSource(7)))
					tr := NewShardedTrainer(4)
					opt := NewAdam(0.01)
					for w := 0; w < windows; w++ {
						samples := shardedTestSamples(96, dim, int64(200+w))
						cfg := TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.01, Seed: int64(w)}
						losses[i][w] = math.Float64bits(tr.Train(m, samples, opt, cfg))
						weights[i][w] = weightsBits(m)
					}
				})
			}
			for w := 0; w < windows; w++ {
				label := fmt.Sprintf("window %d: SIMD vs Go", w)
				if losses[0][w] != losses[1][w] {
					t.Fatalf("%s: loss %#x != %#x", label, losses[1][w], losses[0][w])
				}
				requireSameWeights(t, weights[0][w], weights[1][w], label)
			}
		})
	}
}
