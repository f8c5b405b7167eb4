package ml

import "math/rand"

// LogReg is the lightweight binary logistic-regression model used by
// Algorithm 1 to score candidate classification thresholds: for each
// candidate, the window's training data are labeled and a LogReg is trained;
// the candidate with the highest evaluation accuracy wins.
type LogReg struct {
	W []float64
	B float64
}

// Prob returns P(label=1 | x).
func (m *LogReg) Prob(x []float64) float64 {
	s := m.B
	x = x[:len(m.W)]
	for i, w := range m.W {
		s += w * x[i]
	}
	return sigmoid(s)
}

// Predict returns the argmax class.
func (m *LogReg) Predict(x []float64) int {
	if m.Prob(x) >= 0.5 {
		return 1
	}
	return 0
}

// trainWith fits the model with per-example SGD for the given number of
// epochs. rng must be freshly seeded; order must have len(features)
// elements, which trainWith overwrites.
func (m *LogReg) trainWith(features [][]float64, labels []int, epochs int, lr float64, rng *rand.Rand, order []int) {
	for i := range order {
		order[i] = i
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			x := features[idx]
			y := float64(labels[idx])
			err := m.Prob(x) - y
			le := lr * err
			w := m.W
			x = x[:len(w)]
			for i := range w {
				w[i] -= le * x[i]
			}
			m.B -= le
		}
	}
}

// Accuracy returns the fraction of correct predictions.
func (m *LogReg) Accuracy(features [][]float64, labels []int) float64 {
	if len(features) == 0 {
		return 0
	}
	correct := 0
	for i, x := range features {
		if m.Predict(x) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(features))
}

// LogRegEvaluator implements Algorithm 1's TrainEvalLightModel. The RNG,
// the split permutation, the train/test views and the model weights are
// reused across calls, so the per-window threshold probes (three per window
// in Algorithm 1) do not allocate. The zero value is ready to use.
type LogRegEvaluator struct {
	rng      *rand.Rand
	order    []int
	trF, teF [][]float64
	trL, teL []int
	model    LogReg
}

// Eval trains a logistic regression on a 70% split and returns held-out
// accuracy on the remaining 30% (falling back to training accuracy for tiny
// sets). The split is deterministic for the seed.
func (ev *LogRegEvaluator) Eval(features [][]float64, labels []int, seed int64) float64 {
	n := len(features)
	if n == 0 {
		return 0
	}
	dim := len(features[0])
	if ev.rng == nil {
		ev.rng = rand.New(rand.NewSource(seed))
	} else {
		ev.rng.Seed(seed)
	}
	if cap(ev.order) < n {
		ev.order = make([]int, n)
	}
	order := ev.order[:n]
	for i := range order {
		order[i] = i
	}
	ev.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	m := &ev.model
	if cap(m.W) < dim {
		m.W = make([]float64, dim)
	}
	m.W = m.W[:dim]
	for i := range m.W {
		m.W[i] = 0
	}
	m.B = 0
	cut := n * 7 / 10
	if cut < 1 || n-cut < 1 {
		// Training restarts the generator from the seed, as below.
		ev.rng.Seed(seed)
		m.trainWith(features, labels, 20, 0.1, ev.rng, order)
		return m.Accuracy(features, labels)
	}
	trF, trL := ev.trF[:0], ev.trL[:0]
	teF, teL := ev.teF[:0], ev.teL[:0]
	for i, idx := range order {
		if i < cut {
			trF = append(trF, features[idx])
			trL = append(trL, labels[idx])
		} else {
			teF = append(teF, features[idx])
			teL = append(teL, labels[idx])
		}
	}
	ev.trF, ev.trL, ev.teF, ev.teL = trF, trL, teF, teL
	ev.rng.Seed(seed)
	m.trainWith(trF, trL, 40, 0.1, ev.rng, order[:cut])
	return m.Accuracy(teF, teL)
}
