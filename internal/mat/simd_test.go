package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// onEachPath runs f on the AVX2 kernels, where this build and CPU have
// them, and then on the pure-Go fallback; path names the run for failure
// messages. Without AVX2 both runs take the fallback.
func onEachPath(f func(path string)) {
	for _, simd := range []bool{true, false} {
		path := " (go)"
		if simd && haveAVX2 {
			path = " (avx2)"
		}
		func() {
			defer SetSIMD(simd)()
			f(path)
		}()
	}
}

// refMul is the reference a×b: per output element, the ascending-k sum of
// every a[i][k]·b[k][j] starting from +0, zero terms included.
func refMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

// refAdd returns a+b elementwise, each element a[i] + b[i].
func refAdd(a, b *Matrix) *Matrix {
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] = out.Data[i] + v
	}
	return out
}

// refAddScaled returns a + s·b elementwise, each element a[i] + s·b[i].
func refAddScaled(a *Matrix, s float64, b *Matrix) *Matrix {
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] = out.Data[i] + s*v
	}
	return out
}

// checkMulKernels compares, on the AVX2 and the pure-Go path, MulTo and
// ParallelMulTo against refMul(a, b); MulTo over a transposed copy of w
// against MulTransBTo(a, w), the backward pass's dX product; and
// AddInPlace and AddScaled against their element loops.
func checkMulKernels(t *testing.T, a, b, w, c, d *Matrix, s float64) {
	t.Helper()
	want := refMul(a, b)
	wantT := refMulTransB(a, w)
	wantAdd := refAdd(c, d)
	wantAxpy := refAddScaled(c, s, d)
	wT := New(w.Cols, w.Rows)
	TransposeTo(wT, w)
	onEachPath(func(path string) {
		got := New(a.Rows, b.Cols)
		got.Fill(math.NaN()) // every element must be overwritten
		MulTo(got, a, b)
		requireSameBits(t, "MulTo"+path, got, want)
		for _, workers := range []int{2, 3} {
			got.Fill(math.NaN())
			ParallelMulTo(got, a, b, workers)
			requireSameBits(t, "ParallelMulTo"+path, got, want)
		}
		gotT := New(a.Rows, w.Rows)
		gotT.Fill(math.NaN())
		MulTo(gotT, a, wT)
		requireSameBits(t, "MulTo(a, wᵀ)"+path, gotT, wantT)
		MulTransBTo(gotT, a, w)
		requireSameBits(t, "MulTransBTo"+path, gotT, wantT)

		gotAdd := c.Clone()
		AddInPlace(gotAdd, d)
		requireSameBits(t, "AddInPlace"+path, gotAdd, wantAdd)
		gotAxpy := c.Clone()
		AddScaled(gotAxpy, s, d)
		requireSameBits(t, "AddScaled"+path, gotAxpy, wantAxpy)
	})
}

// The AVX2 kernels and the pure-Go fallback must both match the reference
// loops bit for bit over every panel tail — rows mod 4, columns mod 8,
// k of 0 and 1 — on operands holding 0, −0, NaN and ±Inf, and on row
// counts that ParallelMulTo shards with a leftover row in each shard.
func TestSIMDKernelsMatchFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, special := range []float64{0, 0.05, 0.3} {
		for _, k := range []int{0, 1, 2, 3, 9} {
			for m := 0; m <= 9; m++ {
				for n := 0; n <= 17; n++ {
					a := specialMatrix(rng, m, k, special)
					b := specialMatrix(rng, k, n, special)
					w := specialMatrix(rng, n, k, special)
					c := specialMatrix(rng, m, n, special)
					d := specialMatrix(rng, m, n, special)
					checkMulKernels(t, a, b, w, c, d, rng.NormFloat64())
				}
			}
		}
	}
	for _, rows := range []int{64, 66, 67, 97, 130} {
		a := specialMatrix(rng, rows, 7, 0.1)
		b := specialMatrix(rng, 7, 19, 0.1)
		w := specialMatrix(rng, 13, 7, 0.1)
		checkMulKernels(t, a, b, w, specialMatrix(rng, rows, 19, 0.1), specialMatrix(rng, rows, 19, 0.1), -0.5)
	}
}

// Every output row adds every a·b term, zero terms included, so a zero
// activation times an infinite weight is NaN whether its row falls in a
// 4-row tile, among the leftover rows, in any shard of ParallelMulTo, or
// alone in a one-row product. Rows 32 and 65 of a 66-row product are
// tile rows serially but leftover rows of ParallelMulTo's 33-row shards.
func TestMulRowsSameArithmeticEveryRow(t *testing.T) {
	const rows, k, n = 66, 3, 9
	a, b := New(rows, k), New(k, n)
	a.Fill(1)
	b.Fill(1)
	a.Set(32, 0, 0)
	a.Set(65, 0, 0)
	for j := 0; j < n; j++ {
		b.Set(0, j, math.Inf(1))
	}
	onEachPath(func(path string) {
		serial := New(rows, n)
		MulTo(serial, a, b)
		for _, i := range []int{32, 65} {
			if v := serial.At(i, 0); !math.IsNaN(v) {
				t.Fatalf("%s row %d = %v, want NaN (0·Inf)", path, i, v)
			}
		}
		par := New(rows, n)
		ParallelMulTo(par, a, b, 2)
		requireSameBits(t, "ParallelMulTo vs MulTo"+path, par, serial)
		one := New(1, n)
		for i := 0; i < rows; i++ {
			MulTo(one, FromSlice(1, k, a.Row(i)), b)
			requireSameBits(t, "one-row MulTo vs batched"+path, one, FromSlice(1, n, serial.Row(i)))
		}
	})
}

// FuzzMulKernels drives checkMulKernels — MulTo, ParallelMulTo, the
// transposed-weight dX product, AddInPlace and AddScaled on both paths —
// with arbitrary shapes and float64 bit patterns, recycling data when it
// runs short. Row counts reach past ParallelMulTo's serial cutoff.
func FuzzMulKernels(f *testing.F) {
	le := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(uint8(4), uint8(5), uint8(8), le(1, -2, 0.5, 0, 3))
	f.Add(uint8(66), uint8(3), uint8(9), le(0, math.Inf(1), -1, math.Copysign(0, -1)))
	f.Add(uint8(7), uint8(1), uint8(17), le(math.NaN(), 0, 2, math.Inf(-1), 1e-310))
	f.Add(uint8(5), uint8(0), uint8(8), []byte{})
	f.Fuzz(func(t *testing.T, m, k, n uint8, data []byte) {
		vals := make([]float64, 0, len(data)/8)
		for len(data) >= 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		next := 0
		fill := func(rows, cols int) *Matrix {
			mx := New(rows, cols)
			for i := range mx.Data {
				if len(vals) > 0 {
					mx.Data[i] = vals[next%len(vals)]
					next++
				} else {
					mx.Data[i] = float64(i%5) - 2
				}
			}
			return mx
		}
		mm, kk, nn := int(m%80), int(k%12), int(n%20)
		s := 1.5
		if len(vals) > 0 {
			s = vals[len(vals)-1]
		}
		checkMulKernels(t, fill(mm, kk), fill(kk, nn), fill(int((m+n)%11), kk), fill(mm, nn), fill(mm, nn), s)
	})
}

// The dX product of backpropagation as the training arena runs it: the
// plain product with the layer's transposed weights, which takes the SIMD
// kernel (compare BenchmarkMulTransBTo*, the same product without the
// transposed copy).
func benchmarkMulTransposed(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a, w, dst := randomMatrix(rng, m, k), randomMatrix(rng, n, k), New(m, n)
	wT := New(k, n)
	TransposeTo(wT, w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTo(dst, a, wT)
	}
}

func BenchmarkMulToTransposed8x48x96(b *testing.B)  { benchmarkMulTransposed(b, 8, 48, 96) }
func BenchmarkMulToTransposed32x48x96(b *testing.B) { benchmarkMulTransposed(b, 32, 48, 96) }

func benchmarkElementwise(b *testing.B, op func(a, x *Matrix)) {
	rng := rand.New(rand.NewSource(1))
	a, x := randomMatrix(rng, 96, 48), randomMatrix(rng, 96, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(a, x)
	}
}

// The chunk-gradient reduction and the SGD step over model 1's largest
// weight matrix (96×48).
func BenchmarkAddInPlace96x48(b *testing.B) { benchmarkElementwise(b, AddInPlace) }
func BenchmarkAddScaled96x48(b *testing.B) {
	benchmarkElementwise(b, func(a, x *Matrix) { AddScaled(a, -1e-9, x) })
}
