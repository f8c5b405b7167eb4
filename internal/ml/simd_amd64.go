package ml

// useSIMD selects the AVX2 kernels in simd_amd64.s over tensor.go's loops
// for shapes they cover. It is set once, from CPUID: AVX2 present and YMM
// state enabled by the OS. Tests clear it to run the Go loops as the
// reference.
var useSIMD = hasAVX2()

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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func matVec2AVX2(w1, w2, u1, u2, x, h, out1, out2 *float64, rows, n, k int)

//go:noescape
func outerAddGradAVX2(grad, gv, x *float64, rows, n int)

//go:noescape
func matTVecAddAVX2(w, gv, out *float64, rows, n int)
