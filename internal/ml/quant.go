package ml

import "math"

// Quantization (§IV): "All model parameters are quantized to 8-bit integers
// at a loss of accuracy in less than 1%." We implement symmetric per-tensor
// post-training quantization: each weight tensor is snapped to a 255-level
// int8 grid (w ≈ q·scale with q ∈ [−127,127]). The cached per-page hidden
// state is likewise stored as 32 int8 values (32 bytes, as the paper's 36-byte
// metadata entry requires), exploiting the fact that GRU hidden states are
// bounded in (−1,1).

// HiddenScale is the fixed quantization scale for hidden states: values in
// (−1,1) map onto int8 via round(h*127).
const HiddenScale = 127.0

// QuantizeTensor snaps a tensor's values onto the int8 grid in place,
// returning the scale used. A zero tensor gets scale 0.
func QuantizeTensor(t *Tensor) float64 {
	maxAbs := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	scale := maxAbs / 127.0
	t.update(func(w []float64) {
		for i, v := range w {
			q := math.Round(v / scale)
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			w[i] = q * scale
		}
	})
	return scale
}

// QuantizeHidden packs a float hidden state into int8 (the 32-byte cached
// state stored in flash metadata), writing into dst (allocating when dst is
// nil or too short) and returning it. The hot path passes the metadata
// entry's array directly so quantized deployment stays allocation-free.
func QuantizeHidden(h []float64, dst []int8) []int8 {
	out := dst
	if len(out) < len(h) {
		out = make([]int8, len(h))
	}
	out = out[:len(h)]
	for i, v := range h {
		q := math.Round(v * HiddenScale)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		out[i] = int8(q)
	}
	return out
}

// DequantizeHidden unpacks an int8 hidden state into dst (allocating when
// dst is nil or too short) and returns it.
func DequantizeHidden(q []int8, dst []float64) []float64 {
	if len(dst) < len(q) {
		dst = make([]float64, len(q))
	}
	dst = dst[:len(q)]
	for i, v := range q {
		dst[i] = float64(v) / HiddenScale
	}
	return dst
}
