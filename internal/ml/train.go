package ml

import (
	"math"
	"math/rand"
)

// Adam is the Adam optimizer (Kingma & Ba) over a set of parameter tensors,
// as used by PHFTL's Model Trainer (§III-B: "trained ... with the cross
// entropy loss function and the Adam optimizer").
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	step int
	m, v [][]float64
}

// NewAdam returns an Adam optimizer with the standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Update applies one optimization step to params using their accumulated
// gradients (scaled by 1/batch), then leaves gradients untouched — callers
// should ZeroGrad afterwards.
func (a *Adam) Update(params []*Tensor, batch int) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.data))
			a.v[i] = make([]float64, len(p.data))
		}
	}
	a.step++
	scale := 1.0
	if batch > 1 {
		scale = 1.0 / float64(batch)
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		p.update(func(w []float64) {
			for j := range w {
				g := p.Grad[j] * scale
				m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
				v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
				mHat := m[j] / bc1
				vHat := v[j] / bc2
				w[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
			}
		})
	}
}

// SoftmaxCrossEntropyInto returns the loss and the gradient w.r.t. the
// logits for a single sample with integer label. probs is caller-owned
// scratch of len(logits), overwritten with the gradient (which is also
// returned), so training does not allocate per sample.
func SoftmaxCrossEntropyInto(logits []float64, label int, probs []float64) (float64, []float64) {
	maxL := logits[0]
	for _, v := range logits[1:] {
		if v > maxL {
			maxL = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		probs[i] = math.Exp(v - maxL)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	loss := -math.Log(math.Max(probs[label], 1e-15))
	grad := probs
	grad[label] -= 1
	return loss, grad
}

// Sample is one training example: a feature sequence and its binary label
// (1 = short-living).
type Sample struct {
	Seq   [][]float64
	Label int
}

// TrainConfig controls one training run.
type TrainConfig struct {
	Epochs    int     // paper: one epoch per window
	BatchSize int     // mini-batch size
	LR        float64 // Adam learning rate
	Seed      int64   // shuffle seed for determinism
}

// DefaultTrainConfig mirrors the paper: one epoch, small batches.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.01, Seed: 1}
}

// ResampleScratch draws class-balanced subsets of samples (paper, Algorithm
// 1: "label and resample to a small, balanced training set"). It keeps its
// buffers and a reseedable RNG, so a caller that resamples every window —
// PHFTL's endWindow — does not pay ~5 KB of rand.Rand plus three slices per
// call. The zero value is ready to use.
type ResampleScratch struct {
	rng      *rand.Rand
	pos, neg []int
	out      []Sample
}

// Resample undersamples the majority class to the minority's size, capped
// at maxPerClass per class when positive. The selection is deterministic for
// a given seed. The returned slice aliases the scratch and is overwritten by
// the next call.
func (rs *ResampleScratch) Resample(samples []Sample, maxPerClass int, seed int64) []Sample {
	pos, neg := rs.pos[:0], rs.neg[:0]
	for i, s := range samples {
		if s.Label == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rs.pos, rs.neg = pos, neg
	if rs.rng == nil {
		rs.rng = rand.New(rand.NewSource(seed))
	} else {
		// Seeding an existing Rand restarts the exact stream a fresh
		// rand.New(rand.NewSource(seed)) would produce, without allocating.
		rs.rng.Seed(seed)
	}
	rs.rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rs.rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	n := len(pos)
	if len(neg) < n {
		n = len(neg)
	}
	if maxPerClass > 0 && n > maxPerClass {
		n = maxPerClass
	}
	out := rs.out[:0]
	for i := 0; i < n; i++ {
		out = append(out, samples[pos[i]], samples[neg[i]])
	}
	rs.out = out
	return out
}
