//go:build amd64 && !purego

package mat

// haveAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches, so the
// kernels in kernels_amd64.s may run.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves and restores XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gemm4x8 computes a 4-row × n8-column block of a product, n8 a positive
// multiple of 8 and kdim > 0: for r < 4 and j < n8, the ascending-k sum
// s = +0 + Σ a[r*ars+k*aks]·b[k*ldb+j] is stored to dst[r*ldd+j], or
// added to it when add != 0. Strides are in elements.
//
//go:noescape
func gemm4x8(dst *float64, ldd int, a *float64, ars, aks int, b *float64, ldb, kdim, n8, add int)

// addVec sets dst[i] += src[i] for i < n.
//
//go:noescape
func addVec(dst, src *float64, n int)

// axpyVec sets dst[i] += s*src[i] for i < n.
//
//go:noescape
func axpyVec(dst *float64, s float64, src *float64, n int)
