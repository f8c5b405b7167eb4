//go:build !amd64

package ml

// useSIMD is always false off amd64: tensor.go's Go loops are the only
// kernels, and the stubs below are never reached.
var useSIMD = false

var expSIMD = false

func hasFMA() bool { return false }

func matVec2AVX2(w1, w2, u1, u2, x, h, out1, out2 *float64, rows, n, k int) {
	panic("ml: no SIMD kernels on this architecture")
}

func outerAddGradSeqAVX2(grad, gv, x *float64, rows, n, steps int) {
	panic("ml: no SIMD kernels on this architecture")
}

func matTVecAddAVX2(w, gv, out *float64, rows, n int) {
	panic("ml: no SIMD kernels on this architecture")
}

func sigmoidAddAVX2(dst, src, bias *float64, n int) int {
	panic("ml: no SIMD kernels on this architecture")
}

func tanhAddAVX2(dst, src, bias *float64, n int) int {
	panic("ml: no SIMD kernels on this architecture")
}
