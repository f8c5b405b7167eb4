package ml

import (
	"runtime"

	"github.com/phftl/phftl/internal/par"
)

// ShardedTrainer is a data-parallel drop-in for TrainModel. Each mini-batch
// is split into Lanes fixed, index-ordered shards; every shard accumulates
// gradients into a private shadow of the model (shared weights, private
// gradients — see Net.ShadowClone), and the shard gradients are
// then reduced into the master in ascending shard order before the Adam step.
//
// Determinism contract: the deployed weights depend only on Lanes, never on
// the worker count — the shard partition, the within-shard accumulation order,
// and the reduction order are all fixed, so training on 1 (serial), 2 or 4
// goroutines produces bit-identical weights. Shards are distributed over the
// pool's lanes by striding (shard ≡ lane mod lane count), and a lane's work
// depends on its index alone, which keeps shard contents independent of how
// many goroutines happen to exist and of which one runs a lane.
//
// With Lanes == 1 the trainer reduces a single shard accumulated in shuffled
// sample order into zeroed master gradients — numerically identical to
// TrainModel (x + 0 = x exactly), which the tests pin. With Lanes > 1 the
// gradient summation order differs from TrainModel's single fold, so weights
// legitimately differ from TrainModel in low-order bits; the golden curves
// were regenerated once when PHFTL switched to this trainer.
//
// A ShardedTrainer is single-owner and reusable across windows: shadows,
// shuffler and loss buffers are built once and reused, so steady-state
// training performs no per-window allocations beyond what the model's own
// lazily-grown scratch needs.
type ShardedTrainer struct {
	lanes   int
	workers int // goroutines per Train pinned by SetWorkers; 0 derives it
	master  *Net
	shadows []*Net

	sh        *shuffler
	idx       []int // non-empty sample indices of the current epoch, shuffled
	chunk     []int // current mini-batch window into idx
	samples   []Sample
	shardLoss []float64
	poolLanes int
	laneFn    func(lane int)
}

// NewShardedTrainer returns a trainer with the given fixed shard count (values
// < 1 are treated as 1). Each Train spreads the shards over one goroutine per
// CPU, min(Lanes, GOMAXPROCS), unless SetWorkers pinned the count.
func NewShardedTrainer(lanes int) *ShardedTrainer {
	if lanes < 1 {
		lanes = 1
	}
	t := &ShardedTrainer{lanes: lanes, shardLoss: make([]float64, lanes)}
	t.laneFn = t.laneStep
	return t
}

// SetWorkers pins how many goroutines each Train call spreads the shards
// over, in place of the GOMAXPROCS-derived default; n <= 1 is serial, and n
// is clamped to Lanes (more would only park idle). The helpers live for one
// Train call: none exists between training passes, so a trainer needs no
// Close. The count never changes training results, only wall-clock.
func (t *ShardedTrainer) SetWorkers(n int) { t.workers = max(1, min(n, t.lanes)) }

// trainWorkers is the goroutine count of the next Train: the pinned count,
// else one per CPU up to Lanes.
func (t *ShardedTrainer) trainWorkers() int {
	if t.workers > 0 {
		return t.workers
	}
	return min(t.lanes, runtime.GOMAXPROCS(0))
}

// bind (re)builds the per-shard shadows when the master model changes.
func (t *ShardedTrainer) bind(m *Net) {
	if t.master == m && len(t.shadows) == t.lanes {
		return
	}
	t.master = m
	t.shadows = make([]*Net, t.lanes)
	for i := range t.shadows {
		t.shadows[i] = m.ShadowClone()
	}
}

// laneStep processes every shard assigned to one pool lane: shards are strided
// across pool lanes so their contents do not depend on the pool size.
func (t *ShardedTrainer) laneStep(lane int) {
	n := len(t.chunk)
	for shard := lane; shard < t.lanes; shard += t.poolLanes {
		lo := shard * n / t.lanes
		hi := (shard + 1) * n / t.lanes
		m := t.shadows[shard]
		total := 0.0
		for _, si := range t.chunk[lo:hi] {
			s := t.samples[si]
			total += m.AccumulateGradients(s.Seq, s.Label)
		}
		t.shardLoss[shard] = total
	}
}

// reduce folds the shard gradients into the master in ascending shard order
// and returns the chunk's loss sum (also in shard order).
func (t *ShardedTrainer) reduce() float64 {
	mp := t.master.Params()
	for _, sh := range t.shadows {
		sp := sh.Params()
		for i, p := range mp {
			g, sg := p.Grad, sp[i].Grad
			for j := range g {
				g[j] += sg[j]
			}
		}
	}
	loss := 0.0
	for _, l := range t.shardLoss {
		loss += l
	}
	return loss
}

// Train trains m in place on the samples, mirroring TrainModel's schedule
// (shuffle per epoch, skip empty sequences, Adam step per BatchSize non-empty
// samples plus a leftover step) with the shard-parallel gradient accumulation
// described above. It returns the mean loss of the final epoch.
func (t *ShardedTrainer) Train(m *Net, samples []Sample, opt *Adam, cfg TrainConfig) float64 {
	if len(samples) == 0 {
		return 0
	}
	t.bind(m)
	if t.sh == nil {
		t.sh = newShuffler(cfg.Seed, len(samples))
	} else {
		t.sh.reset(cfg.Seed, len(samples))
	}
	epochs := cfg.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 32
	}
	t.samples = samples
	longest := 0
	for _, s := range samples {
		longest = max(longest, len(s.Seq))
	}
	for _, sh := range t.shadows {
		sh.cell.reserve(longest)
	}
	pool := par.New(t.trainWorkers()) // nil, i.e. serial, below two workers
	defer pool.Close()
	t.poolLanes = pool.Lanes()
	lastLoss := 0.0
	for e := 0; e < epochs; e++ {
		order := t.sh.order()
		idx := t.idx[:0]
		for _, i := range order {
			if len(samples[i].Seq) > 0 {
				idx = append(idx, i)
			}
		}
		t.idx = idx
		total := 0.0
		m.ZeroGrad()
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			t.chunk = idx[start:end]
			for i := range t.shardLoss {
				t.shardLoss[i] = 0
			}
			pool.Run(t.laneFn)
			total += t.reduce()
			opt.Update(m.Params(), end-start)
			m.ZeroGrad()
			for _, sh := range t.shadows {
				sh.ZeroGrad()
			}
		}
		lastLoss = total / float64(len(order))
	}
	t.samples = nil
	t.chunk = nil
	return lastLoss
}
