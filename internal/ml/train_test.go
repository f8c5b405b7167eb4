package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainLearnsSequenceTask(t *testing.T) {
	// Task: label 1 iff the sum of first-feature values across the sequence
	// exceeds 0 — requires integrating over time, so a working GRU should
	// reach high accuracy while a broken recurrence would not.
	rng := rand.New(rand.NewSource(10))
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
	for i := 0; i < 600; i++ {
		train = append(train, makeSample())
	}
	for i := 0; i < 200; i++ {
		test = append(test, makeSample())
	}
	n := NewGRUNet(2, 12, 2, rng)
	opt := NewAdam(0.01)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 12
	TrainModel(n, train, opt, cfg)
	acc := EvalModelAccuracy(n, test)
	if acc < 0.85 {
		t.Fatalf("test accuracy %.3f, want >= 0.85", acc)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var samples []Sample
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		label := 0
		if x > 0.5 {
			label = 1
		}
		samples = append(samples, Sample{Seq: [][]float64{{x}}, Label: label})
	}
	n := NewGRUNet(1, 6, 2, rng)
	opt := NewAdam(0.02)
	cfg := DefaultTrainConfig()
	first := TrainModel(n, samples, opt, cfg)
	var last float64
	for i := 0; i < 20; i++ {
		last = TrainModel(n, samples, opt, cfg)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first %.4f, last %.4f", first, last)
	}
}

func TestTrainModelEmptyAndDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := NewGRUNet(2, 4, 2, rng)
	opt := NewAdam(0.01)
	if loss := TrainModel(n, nil, opt, DefaultTrainConfig()); loss != 0 {
		t.Errorf("empty training loss = %v", loss)
	}
	// Empty sequences are skipped without panicking.
	samples := []Sample{{Seq: nil, Label: 0}, {Seq: [][]float64{{1, 2}}, Label: 1}}
	TrainModel(n, samples, opt, DefaultTrainConfig())
	if EvalModelAccuracy(n, nil) != 0 {
		t.Error("EvalModelAccuracy(nil) should be 0")
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	logits := []float64{1.5, -0.3, 0.7}
	label := 2
	lossOf := func(l []float64) float64 {
		loss, _ := SoftmaxCrossEntropyInto(l, label, make([]float64, len(l)))
		return loss
	}
	loss, grad := SoftmaxCrossEntropyInto(logits, label, make([]float64, len(logits)))
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	// Gradient sums to zero and grad[label] is negative.
	sum := 0.0
	for _, g := range grad {
		sum += g
	}
	if math.Abs(sum) > 1e-9 {
		t.Errorf("grad sum = %v, want 0", sum)
	}
	if grad[label] >= 0 {
		t.Errorf("grad[label] = %v, want negative", grad[label])
	}
	// Numeric check.
	const eps = 1e-6
	for i := range logits {
		lp := append([]float64(nil), logits...)
		lp[i] += eps
		lm := append([]float64(nil), logits...)
		lm[i] -= eps
		want := (lossOf(lp) - lossOf(lm)) / (2 * eps)
		if math.Abs(grad[i]-want) > 1e-6 {
			t.Errorf("grad[%d] = %v, numeric %v", i, grad[i], want)
		}
	}
}

func TestResampleBalanced(t *testing.T) {
	var samples []Sample
	for i := 0; i < 90; i++ {
		samples = append(samples, Sample{Seq: [][]float64{{0}}, Label: 0})
	}
	for i := 0; i < 10; i++ {
		samples = append(samples, Sample{Seq: [][]float64{{1}}, Label: 1})
	}
	var rs ResampleScratch
	out := rs.Resample(samples, 0, 1)
	if len(out) != 20 {
		t.Fatalf("len = %d, want 20", len(out))
	}
	pos := 0
	for _, s := range out {
		if s.Label == 1 {
			pos++
		}
	}
	if pos != 10 {
		t.Errorf("positives = %d, want 10", pos)
	}
	capped := rs.Resample(samples, 4, 1)
	if len(capped) != 8 {
		t.Errorf("capped len = %d, want 8", len(capped))
	}
	if got := rs.Resample(samples[:90], 0, 1); len(got) != 0 {
		t.Errorf("single-class resample len = %d, want 0", len(got))
	}
}

func BenchmarkGRUStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := NewGRUNet(20, 32, 2, rng)
	h := make([]float64, 32)
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.StepState(h, x, h)
	}
}

// BenchmarkGRUTrain times one serial ShardedTrainer.Train pass (4 lanes, as
// PHFTL trains, on one goroutine) over 1 024 eight-step samples at the
// production shape (InputDim 20 → Hidden 32), on the AVX2 kernels and on the
// Go reference loops, and reports µs/example.
func BenchmarkGRUTrain(b *testing.B) {
	const examples = 1024
	rng := rand.New(rand.NewSource(1))
	samples := make([]Sample, examples)
	for i := range samples {
		seq := make([][]float64, 8)
		for j := range seq {
			seq[j] = make([]float64, 20)
			for k := range seq[j] {
				seq[j][k] = rng.Float64()
			}
		}
		samples[i] = Sample{Seq: seq, Label: rng.Intn(2)}
	}
	for _, path := range kernelPaths {
		b.Run("20x32/"+path.name, func(b *testing.B) {
			n := NewGRUNet(20, 32, 2, rand.New(rand.NewSource(1)))
			opt := NewAdam(0.01)
			tr := NewShardedTrainer(4)
			tr.SetWorkers(1)
			withPath(b, path.simd, func() {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tr.Train(n, samples, opt, DefaultTrainConfig())
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*examples), "µs/example")
			})
		})
	}
}
