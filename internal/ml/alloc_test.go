package ml

import (
	"fmt"
	"math/rand"
	"testing"
)

// raceEnabled is set to true by alloc_race_test.go under -race; the race
// runtime instruments allocations, so AllocsPerRun assertions only hold in
// normal builds.

// TestInferenceZeroAllocs pins the zero-allocation invariant of the
// device-side prediction hot path: after one warm-up call (which sizes the
// per-instance scratch), StepState, LogitsFromState and PredictInto must not
// heap-allocate for any deployed model family. The paper's 9 µs prediction
// budget (§III-C) leaves no room for GC churn on the per-write path.
func TestInferenceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(1))
	models := []struct {
		name string
		m    *Net
	}{
		{"GRU", NewGRUNet(8, 32, 2, rng)},
		{"LSTM", NewLSTMNet(8, 32, 2, rng)},
		{"MLP", NewMLPNet(8, 32, 2, rng)},
	}
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			x := make([]float64, 8)
			for i := range x {
				x[i] = rng.Float64()
			}
			state := make([]float64, m.StateSize())
			out := make([]float64, m.StateSize())

			m.StepState(state, x, out) // warm up scratch
			if allocs := testing.AllocsPerRun(100, func() {
				m.StepState(state, x, out)
			}); allocs != 0 {
				t.Errorf("StepState allocates %.1f per call", allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				_ = m.LogitsFromState(out)
			}); allocs != 0 {
				t.Errorf("LogitsFromState allocates %.1f per call", allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				_ = m.PredictInto(state, x, out)
			}); allocs != 0 {
				t.Errorf("PredictInto allocates %.1f per call", allocs)
			}
		})
	}
}

// TestTrainingZeroAllocs pins that a training step reuses each cell's trace
// arena and backward buffers: once the arena has grown to the sequence
// length, AccumulateGradients does not heap-allocate.
func TestTrainingZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			m := tc.make(8, 32, 2, rng)
			seq := randSeq(rng, 8, 8)
			m.AccumulateGradients(seq, 1) // warm up the trace arena
			if allocs := testing.AllocsPerRun(50, func() {
				m.AccumulateGradients(seq, 1)
			}); allocs != 0 {
				t.Errorf("AccumulateGradients allocates %.1f per call", allocs)
			}
		})
	}
}

// TestQuantizedInferenceZeroAllocs covers the actually-deployed artifact: the
// int8-quantized network produced by QuantizeModel, which is what PHFTL runs
// per write.
func TestQuantizedInferenceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(2))
	m := NewGRUNet(8, 32, 2, rng).QuantizeModel()
	x := make([]float64, 8)
	state := make([]float64, m.StateSize())
	out := make([]float64, m.StateSize())
	_ = m.PredictInto(state, x, out)
	if allocs := testing.AllocsPerRun(100, func() {
		_ = m.PredictInto(state, x, out)
	}); allocs != 0 {
		t.Errorf("quantized PredictInto allocates %.1f per call", allocs)
	}
}

// TestQuantizeHiddenZeroAllocs pins buffer reuse in the hidden-state
// round-trip that brackets every prediction.
func TestQuantizeHiddenZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	h := make([]float64, 32)
	q := make([]int8, 32)
	f := make([]float64, 32)
	if allocs := testing.AllocsPerRun(100, func() {
		q = QuantizeHidden(h, q)
		f = DequantizeHidden(q, f)
	}); allocs != 0 {
		t.Errorf("hidden-state round trip allocates %.1f per call", allocs)
	}
}

// BenchmarkPredictStep times one inference step per family at a narrow input
// and at the production shape (InputDim 20 → Hidden 32), on the AVX2 kernels
// and on the Go loops.
func BenchmarkPredictStep(b *testing.B) {
	for _, in := range []int{8, 20} {
		rng := rand.New(rand.NewSource(3))
		families := []struct {
			name string
			m    *Net
		}{
			{"gru", NewGRUNet(in, 32, 2, rng)},
			{"gru-quantized", NewGRUNet(in, 32, 2, rng).QuantizeModel()},
			{"lstm", NewLSTMNet(in, 32, 2, rng)},
			{"mlp", NewMLPNet(in, 32, 2, rng)},
		}
		x := make([]float64, in)
		for i := range x {
			x[i] = rng.Float64()
		}
		for _, tc := range families {
			for _, path := range kernelPaths {
				b.Run(fmt.Sprintf("%s-%dx32/%s", tc.name, in, path.name), func(b *testing.B) {
					m := tc.m
					state := make([]float64, m.StateSize())
					b.ReportAllocs()
					withPath(b, path.simd, func() {
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							_ = m.PredictInto(state, x, state)
						}
					})
				})
			}
		}
	}
}
