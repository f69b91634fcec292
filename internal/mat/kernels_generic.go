//go:build !amd64 || purego

package mat

// haveAVX2 is false off amd64 and under the purego build tag: only the
// pure-Go kernels exist, and the stubs below are never called.
const haveAVX2 = false

func gemm4x8(dst *float64, ldd int, a *float64, ars, aks int, b *float64, ldb, kdim, n8, add int) {
	panic("mat: no SIMD kernels in this build")
}

func addVec(dst, src *float64, n int) { panic("mat: no SIMD kernels in this build") }

func axpyVec(dst *float64, s float64, src *float64, n int) {
	panic("mat: no SIMD kernels in this build")
}
