package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refMulTransA is the reference aᵀ×b: a fresh +0 accumulator matrix, rows
// of a visited in ascending k, zero a-elements skipped.
func refMulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// refMulTransB is the reference a×bᵀ: one ascending-k dot product per
// output element.
func refMulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			out.Data[i*out.Cols+j] = sum
		}
	}
	return out
}

// refSumRows is the reference column sum: a +0 row, rows added top down.
func refSumRows(m *Matrix) *Matrix {
	out := New(1, m.Cols)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c] += m.Data[r*m.Cols+c]
		}
	}
	return out
}

// sameBits reports whether x and y are the same float64 bit pattern. Any
// two NaNs match: when both operands of a commutative instruction are NaN
// the hardware keeps the payload of whichever the compiler placed first,
// and that placement is not part of the kernels' contract. Signed zeros
// and infinities are compared exactly.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

func requireSameBits(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element (%d,%d) = %v (%#x), want %v (%#x)", what, i/want.Cols, i%want.Cols,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// checkTransKernels compares every new kernel with its reference on one
// set of operands, on the AVX2 and the pure-Go path: AddMulTransA against
// refAdd(dst, refMulTransA), MulTransA, MulTransBTo and MulTransB against
// refMulTransB, and AddSumRows against refAdd(dst, refSumRows).
func checkTransKernels(t *testing.T, a, b, c, dst, bias *Matrix) {
	t.Helper()
	want := refAdd(dst, refMulTransA(a, b))
	wantB := refMulTransB(b, c)
	wantS := refAdd(bias, refSumRows(b))
	onEachPath(func(path string) {
		got := dst.Clone()
		AddMulTransA(got, a, b)
		requireSameBits(t, "AddMulTransA"+path, got, want)
		requireSameBits(t, "MulTransA"+path, MulTransA(a, b), refMulTransA(a, b))

		gotB := New(b.Rows, c.Rows)
		gotB.Fill(math.NaN()) // every element must be overwritten
		MulTransBTo(gotB, b, c)
		requireSameBits(t, "MulTransBTo"+path, gotB, wantB)
		requireSameBits(t, "MulTransB"+path, MulTransB(b, c), wantB)

		gotS := bias.Clone()
		AddSumRows(gotS, b)
		requireSameBits(t, "AddSumRows"+path, gotS, wantS)
		requireSameBits(t, "SumRows"+path, b.SumRows(), refSumRows(b))
	})
}

// specialMatrix fills a rows×cols matrix with random values, replacing a
// share of them with 0, −0, NaN, +Inf and −Inf.
func specialMatrix(rng *rand.Rand, rows, cols int, special float64) *Matrix {
	return fillSpecial(rng, rows, cols, special,
		[]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)})
}

// finiteSpecialMatrix is specialMatrix with finite specials only: 0, −0,
// a subnormal, and magnitudes whose products overflow to ±Inf. A finite b
// keeps AddMulTransA on its tiled kernels instead of the reference loop.
func finiteSpecialMatrix(rng *rand.Rand, rows, cols int, special float64) *Matrix {
	return fillSpecial(rng, rows, cols, special,
		[]float64{0, math.Copysign(0, -1), 5e-324, 1e300, -1e300})
}

func fillSpecial(rng *rand.Rand, rows, cols int, special float64, specials []float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch {
		case rng.Float64() < special:
			m.Data[i] = specials[rng.Intn(len(specials))]
		case rng.Float64() < 0.3:
			m.Data[i] = 0 // ReLU outputs are often exactly zero
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// The tiled kernels must be bit-identical to the reference loops on every
// shape — including each tile tail (rows not a multiple of 4, columns not
// a multiple of 8 or 2, and empty operands) — and on operands holding
// zeros, −0, NaN and ±Inf; a non-finite b sends AddMulTransA down its
// reference fallback, a finite one keeps it on the tiled kernels.
func TestTransKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, special := range []float64{0, 0.02, 0.3} {
		for k := 0; k <= 9; k++ {
			for m := 0; m <= 9; m++ {
				for n := 0; n <= 17; n++ {
					a := specialMatrix(rng, k, m, special)
					b := specialMatrix(rng, k, n, special)
					if n%2 == 0 {
						b = finiteSpecialMatrix(rng, k, n, special)
					}
					c := specialMatrix(rng, rng.Intn(7), n, special)
					dst := specialMatrix(rng, m, n, special)
					bias := specialMatrix(rng, 1, n, special)
					checkTransKernels(t, a, b, c, dst, bias)
				}
			}
		}
	}
	// Training shapes: an 8-row chunk and a 32-row batch of model 1.
	for _, shape := range [][3]int{{8, 6, 96}, {8, 96, 48}, {32, 48, 24}, {32, 24, 1}, {3, 96, 48}} {
		k, m, n := shape[0], shape[1], shape[2]
		a := specialMatrix(rng, k, m, 0)
		b := specialMatrix(rng, k, n, 0)
		c := specialMatrix(rng, m, n, 0)
		checkTransKernels(t, a, b, c, specialMatrix(rng, m, n, 0), specialMatrix(rng, 1, n, 0))
	}
}

// A zero a-element facing an infinite b-element must contribute nothing,
// exactly as the reference skip does; a branchless product would turn the
// untouched accumulator into NaN.
func TestAddMulTransAKeepsZeroTimesInfSkipped(t *testing.T) {
	a := FromSlice(2, 2, []float64{0, 1, 0, 2})
	b := FromSlice(2, 2, []float64{math.Inf(1), 1, 3, math.Inf(-1)})
	dst := FromSlice(2, 2, []float64{5, 6, 7, 8})
	AddMulTransA(dst, a, b)
	if dst.At(0, 0) != 5 || dst.At(0, 1) != 6 {
		t.Fatalf("zero column of a changed dst row 0: %v", dst)
	}
	if !math.IsInf(dst.At(1, 0), 1) || !math.IsInf(dst.At(1, 1), -1) {
		t.Fatalf("row 1 = %v, want [+Inf -Inf]", dst.Row(1))
	}
}

func TestTransKernelShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"AddMulTransA inner": func() { AddMulTransA(New(2, 2), New(3, 2), New(2, 2)) },
		"AddMulTransA dst":   func() { AddMulTransA(New(2, 3), New(3, 2), New(3, 2)) },
		"MulTransBTo inner":  func() { MulTransBTo(New(2, 2), New(2, 3), New(2, 2)) },
		"MulTransBTo dst":    func() { MulTransBTo(New(2, 3), New(2, 2), New(2, 2)) },
		"AddSumRows dst":     func() { AddSumRows(New(1, 3), New(2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzTransKernels drives the kernel equivalence check with arbitrary
// shapes and arbitrary float64 bit patterns (subnormals, NaN payloads,
// signed zeros, infinities), recycling data when it runs short.
func FuzzTransKernels(f *testing.F) {
	le := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(uint8(4), uint8(5), uint8(3), le(1, -2, 0.5, 0, 3))
	f.Add(uint8(8), uint8(6), uint8(9), le(0, math.Inf(1), -1, math.Copysign(0, -1)))
	f.Add(uint8(3), uint8(9), uint8(2), le(math.NaN(), 0, 2, math.Inf(-1), 1e-310))
	f.Add(uint8(0), uint8(2), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, k, m, n uint8, data []byte) {
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
		kk, mm, nn := int(k%12), int(m%12), int(n%12)
		a, b := fill(kk, mm), fill(kk, nn)
		c := fill(int((k+m)%7), nn)
		checkTransKernels(t, a, b, c, fill(mm, nn), fill(1, nn))
	})
}

func benchmarkTransA(b *testing.B, k, m, n int) {
	rng := rand.New(rand.NewSource(1))
	a, g, dst := randomMatrix(rng, k, m), randomMatrix(rng, k, n), New(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddMulTransA(dst, a, g)
	}
}

func benchmarkTransB(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	a, w, dst := randomMatrix(rng, m, k), randomMatrix(rng, n, k), New(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTransBTo(dst, a, w)
	}
}

// Model 1's second dense layer (96→48) on an 8-row gradient chunk and a
// 32-row batch: the weight-gradient and input-gradient products.
func BenchmarkAddMulTransA8x96x48(b *testing.B)  { benchmarkTransA(b, 8, 96, 48) }
func BenchmarkAddMulTransA32x96x48(b *testing.B) { benchmarkTransA(b, 32, 96, 48) }
func BenchmarkMulTransBTo8x48x96(b *testing.B)   { benchmarkTransB(b, 8, 48, 96) }
func BenchmarkMulTransBTo32x48x96(b *testing.B)  { benchmarkTransB(b, 32, 48, 96) }
