package ml

import (
	"math/rand"
	"testing"
)

func TestLogRegLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var feats [][]float64
	var labels []int
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		label := 0
		if x[0]+x[1] > 0 {
			label = 1
		}
		feats = append(feats, x)
		labels = append(labels, label)
	}
	m := &LogReg{W: make([]float64, 2)}
	m.trainWith(feats, labels, 30, 0.2, rand.New(rand.NewSource(1)), make([]int, len(feats)))
	if acc := m.Accuracy(feats, labels); acc < 0.95 {
		t.Fatalf("accuracy = %.3f, want >= 0.95", acc)
	}
}

func TestTrainEvalLogRegHeldOut(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var feats [][]float64
	var labels []int
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64()}
		label := 0
		if x[0] > 0.5 {
			label = 1
		}
		feats = append(feats, x)
		labels = append(labels, label)
	}
	acc := new(LogRegEvaluator).Eval(feats, labels, 1)
	if acc < 0.9 {
		t.Fatalf("held-out accuracy = %.3f, want >= 0.9", acc)
	}
	// Random labels should score near chance, clearly below the separable
	// case — this is what lets Algorithm 1 rank candidate thresholds.
	randLabels := make([]int, len(labels))
	for i := range randLabels {
		randLabels[i] = rng.Intn(2)
	}
	randAcc := new(LogRegEvaluator).Eval(feats, randLabels, 1)
	if randAcc > acc {
		t.Fatalf("random labels scored %.3f >= separable %.3f", randAcc, acc)
	}
}

func TestTrainEvalLogRegDegenerate(t *testing.T) {
	var ev LogRegEvaluator
	if acc := ev.Eval(nil, nil, 1); acc != 0 {
		t.Errorf("empty = %v", acc)
	}
	// Tiny set falls back to training accuracy without panicking.
	acc := ev.Eval([][]float64{{1}}, []int{1}, 1)
	if acc != 1 {
		t.Errorf("single sample accuracy = %v, want 1 (memorized)", acc)
	}
}

func TestLogRegEmptyTrain(t *testing.T) {
	m := &LogReg{W: make([]float64, 3)}
	m.trainWith(nil, nil, 5, 0.1, rand.New(rand.NewSource(1)), nil) // must not panic
	if m.Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
	if m.Predict([]float64{0, 0, 0}) != 1 {
		t.Error("zero model with sigmoid(0)=0.5 should predict class 1 at the boundary")
	}
}
