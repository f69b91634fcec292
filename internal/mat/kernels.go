package mat

// useAVX2 routes the 4-row GEMM panels and the elementwise sums to the
// AVX2 kernels of kernels_amd64.s. The pure-Go kernels are the fallback
// (other architectures, CPUs without AVX2, the purego build tag) and the
// reference the tests hold the AVX2 ones to; both produce the same bits.
var useAVX2 = haveAVX2

// SetSIMD turns the AVX2 kernels on or off and returns a function that
// restores the previous setting; on is ignored where the build or the CPU
// has no AVX2. It lets tests outside this package run the pure-Go
// fallback on an AVX2 machine, and must not be called while any matrix
// operation runs.
func SetSIMD(on bool) (restore func()) {
	prev := useAVX2
	useAVX2 = on && haveAVX2
	return func() { useAVX2 = prev }
}
