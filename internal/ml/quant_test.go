package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeTensorGrid(t *testing.T) {
	tensor := NewTensor(1, 5)
	tensor.update(func(w []float64) { copy(w, []float64{-1.0, -0.5, 0, 0.5, 1.0}) })
	scale := QuantizeTensor(tensor)
	if scale <= 0 {
		t.Fatalf("scale = %v", scale)
	}
	for i, v := range tensor.data {
		q := v / scale
		if math.Abs(q-math.Round(q)) > 1e-9 {
			t.Errorf("elem %d = %v is not on the int8 grid (scale %v)", i, v, scale)
		}
		if math.Abs(math.Round(q)) > 127 {
			t.Errorf("elem %d quantizes to %v, outside [-127,127]", i, math.Round(q))
		}
	}
	zero := NewTensor(2, 2)
	if s := QuantizeTensor(zero); s != 0 {
		t.Errorf("zero tensor scale = %v", s)
	}
}

func TestQuantizeErrorBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tensor := NewTensor(8, 8)
	tensor.update(func(w []float64) {
		for i := range w {
			w[i] = rng.NormFloat64()
		}
	})
	orig := append([]float64(nil), tensor.data...)
	scale := QuantizeTensor(tensor)
	for i := range tensor.data {
		if math.Abs(tensor.data[i]-orig[i]) > scale/2+1e-12 {
			t.Errorf("elem %d error %v exceeds half a quantization step %v",
				i, math.Abs(tensor.data[i]-orig[i]), scale/2)
		}
	}
}

func TestQuantizedModelAgreesWithFloat(t *testing.T) {
	// Quantized deployment must agree with the float model on the vast
	// majority of inputs (paper: <1% accuracy loss).
	rng := rand.New(rand.NewSource(21))
	n := NewGRUNet(6, 16, 2, rng)
	// Train briefly so weights are meaningful, not just random.
	var samples []Sample
	for i := 0; i < 200; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()
		}
		label := 0
		if x[0] > 0.5 {
			label = 1
		}
		samples = append(samples, Sample{Seq: [][]float64{x}, Label: label})
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 5
	TrainModel(n, samples, NewAdam(0.01), cfg)

	q := n.QuantizeModel()
	agree := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		seq := make([][]float64, 4)
		for s := range seq {
			seq[s] = make([]float64, 6)
			for j := range seq[s] {
				seq[s][j] = rng.Float64()
			}
		}
		if n.Predict(seq) == q.Predict(seq) {
			agree++
		}
	}
	if rate := float64(agree) / trials; rate < 0.99 {
		t.Fatalf("quantized agreement %.3f, want >= 0.99", rate)
	}
}

func TestHiddenQuantRoundTrip(t *testing.T) {
	h := []float64{-0.999, -0.5, 0, 0.25, 0.999}
	q := QuantizeHidden(h, nil)
	if len(q) != len(h) {
		t.Fatalf("len = %d", len(q))
	}
	back := DequantizeHidden(q, nil)
	for i := range h {
		if math.Abs(back[i]-h[i]) > 1.0/HiddenScale {
			t.Errorf("elem %d: %v -> %v, error > 1/127", i, h[i], back[i])
		}
	}
	// Out-of-range values clamp instead of wrapping.
	q2 := QuantizeHidden([]float64{5, -5}, nil)
	if q2[0] != 127 || q2[1] != -127 {
		t.Errorf("clamping failed: %v", q2)
	}
	// Reuse of destination slices.
	dst := make([]float64, 8)
	got := DequantizeHidden(q, dst)
	if &got[0] != &dst[0] {
		t.Error("DequantizeHidden did not reuse dst")
	}
	qdst := make([]int8, 8)
	qgot := QuantizeHidden(h, qdst)
	if &qgot[0] != &qdst[0] {
		t.Error("QuantizeHidden did not reuse dst")
	}
	if len(qgot) != len(h) {
		t.Errorf("QuantizeHidden reused-dst len = %d, want %d", len(qgot), len(h))
	}
}

func TestHiddenQuantRoundTripProperty(t *testing.T) {
	f := func(raw []int8) bool {
		h := make([]float64, len(raw))
		for i, v := range raw {
			if v == -128 { // hidden states live in (-1,1); -128 is unreachable
				v = -127
			}
			h[i] = float64(v) / HiddenScale
		}
		back := DequantizeHidden(QuantizeHidden(h, nil), nil)
		for i := range h {
			if math.Abs(back[i]-h[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
