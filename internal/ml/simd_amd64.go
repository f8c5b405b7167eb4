package ml

import "math"

// useSIMD selects the AVX2 kernels in simd_amd64.s over tensor.go's loops
// for shapes they cover. It is set once, from CPUID: AVX2 present and YMM
// state enabled by the OS. Tests clear it to run the Go loops as the
// reference.
var useSIMD = hasAVX2()

// expSIMD additionally allows the activation kernels, whose exp repeats
// math.Exp's FMA path. math takes that path only where its own CPU flags say
// AVX and FMA (GODEBUG=cpu.fma=off clears them), so the kernels must not
// follow CPUID alone: they run only if they reproduce math on expProbes.
var expSIMD = useSIMD && hasFMA() && activationKernelsMatchMath()

// expProbes are inputs on which math.Exp's FMA and non-FMA paths round
// differently in the last bit: sigmoid's result differs on the first four,
// tanh's on the last four.
var expProbes = [8]float64{
	0.179216522020047, -0.246929110559375, -2.4752834710499103, 1.7844272501470528,
	1.522079166285018, 0.9604348468337307, -1.5666730776117133, 1.9219273155443863,
}

// activationKernelsMatchMath runs both activation kernels on expProbes and
// reports whether every result has math's bits.
func activationKernelsMatchMath() bool {
	var zero, got [8]float64
	if sigmoidAddAVX2(&got[0], &expProbes[0], &zero[0], 4) != 4 ||
		tanhAddAVX2(&got[4], &expProbes[4], nil, 4) != 4 {
		return false
	}
	for i, v := range expProbes {
		want := tanh(v)
		if i < 4 {
			want = sigmoid(v)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			return false
		}
	}
	return true
}

func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 { // XMM and YMM state saved by the OS
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func hasFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func matVec2AVX2(w1, w2, u1, u2, x, h, out1, out2 *float64, rows, n, k int)

//go:noescape
func outerAddGradSeqAVX2(grad, gv, x *float64, rows, n, steps int)

//go:noescape
func matTVecAddAVX2(w, gv, out *float64, rows, n int)

//go:noescape
func sigmoidAddAVX2(dst, src, bias *float64, n int) int

//go:noescape
func tanhAddAVX2(dst, src, bias *float64, n int) int
