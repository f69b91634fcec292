// Package mat implements the dense float64 matrix kernel used by the
// Geomancy neural-network library. It is deliberately small: row-major
// matrices, the handful of operations backpropagation needs, and nothing
// else. All operations either allocate a fresh result or write into an
// explicitly provided destination so that training loops can reuse buffers.
package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"unsafe"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order: element (r,c) lives at
	// Data[r*Cols+c]. len(Data) == Rows*Cols always.
	Data []float64
}

// New returns a zero-valued rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice builds a rows×cols matrix backed by a copy of data, which must
// contain exactly rows*cols values in row-major order.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for r, row := range rows {
		if len(row) != cols {
			panic(fmt.Sprintf("mat: FromRows row %d has %d cols, want %d", r, len(row), cols))
		}
		copy(m.Data[r*cols:(r+1)*cols], row)
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 {
	m.boundsCheck(r, c)
	return m.Data[r*m.Cols+c]
}

// Set stores v at row r, column c.
func (m *Matrix) Set(r, c int, v float64) {
	m.boundsCheck(r, c)
	m.Data[r*m.Cols+c] = v
}

func (m *Matrix) boundsCheck(r, c int) {
	if r < 0 || r >= m.Rows || c < 0 || c >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d", r, c, m.Rows, m.Cols))
	}
}

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float64 {
	if r < 0 || r >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range for %dx%d", r, m.Rows, m.Cols))
	}
	return m.Data[r*m.Cols : (r+1)*m.Cols]
}

// SetRow copies vals into row r; len(vals) must equal Cols.
func (m *Matrix) SetRow(r int, vals []float64) {
	if len(vals) != m.Cols {
		panic(fmt.Sprintf("mat: SetRow got %d values, want %d", len(vals), m.Cols))
	}
	copy(m.Row(r), vals)
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Randomize fills m with uniform values in [-scale, scale) drawn from rng.
func (m *Matrix) Randomize(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// XavierInit fills m with the Glorot/Xavier uniform initialization for a
// layer with the given fan-in and fan-out. It is the standard choice for
// the small dense and recurrent layers in the Geomancy model zoo.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// sameShape panics unless a and b have identical dimensions.
func sameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Mul returns the matrix product a×b. It panics if a.Cols != b.Rows.
func Mul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MulTo(out, a, b)
	return out
}

// MulTo computes dst = a×b, reusing dst's storage. dst must be a.Rows×b.Cols
// and must not alias a or b.
func MulTo(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTo dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	mulRows(dst, a, b, 0, a.Rows)
}

// mulRows computes output rows [lo, hi) of dst = a×b. Every output
// element is one ascending-k sum a[i][0]·b[0][j] + a[i][1]·b[1][j] + …
// starting from +0, with no term skipped, whichever kernel computes it;
// so each row's bits depend only on the matching row of a, and disjoint
// row ranges can run concurrently with results independent of how the
// rows are sharded. With AVX2, whole 4-row × 8-column panels run on the
// vector kernel and the leftover columns and rows on the Go one.
func mulRows(dst, a, b *Matrix, lo, hi int) {
	n, kdim := b.Cols, a.Cols
	if n8 := n &^ 7; useAVX2 && n8 > 0 && kdim > 0 {
		p := lo + (hi-lo)&^3
		for i := lo; i < p; i += 4 {
			gemm4x8(&dst.Data[i*n], n, &a.Data[i*kdim], kdim, 1, &b.Data[0], n, kdim, n8, 0)
		}
		mulRowsGo(dst, a, b, lo, p, n8, n)
		lo = p
	}
	mulRowsGo(dst, a, b, lo, hi, 0, n)
}

// mulRowsGo is the pure-Go kernel of mulRows, restricted to output rows
// [lo, hi) and columns [jlo, jhi).
func mulRowsGo(dst, a, b *Matrix, lo, hi, jlo, jhi int) {
	// Output rows are processed four at a time with a 4×2 register tile:
	// eight accumulators live in registers across the whole k loop, so the
	// hot loop issues no stores and reuses every loaded b element across
	// four rows. With kdim == 0 there is no b element to point at; the
	// one-row loop below writes the zeros.
	n := b.Cols
	kdim := a.Cols
	i := lo
	for ; i+4 <= hi && kdim > 0; i += 4 {
		a0 := a.Data[i*kdim : (i+1)*kdim]
		a1 := a.Data[(i+1)*kdim : (i+2)*kdim]
		a2 := a.Data[(i+2)*kdim : (i+3)*kdim]
		a3 := a.Data[(i+3)*kdim : (i+4)*kdim]
		d0 := dst.Data[i*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		d2 := dst.Data[(i+2)*n : (i+3)*n]
		d3 := dst.Data[(i+3)*n : (i+4)*n]
		// The b column loads stride by n each k step, a pattern the
		// bounds-check prover cannot handle; a pointer walk keeps the
		// two loads per step check-free. b.Data is reachable from the
		// argument for the whole loop, so the pointer stays valid.
		stride := uintptr(n) * 8
		j := jlo
		for ; j+2 <= jhi; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			pb := unsafe.Pointer(&b.Data[j])
			k := 0
			for ; k+2 <= kdim; k += 2 {
				v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
				b0 := *(*float64)(pb)
				b1 := *(*float64)(unsafe.Add(pb, 8))
				s00 += v0 * b0
				s01 += v0 * b1
				s10 += v1 * b0
				s11 += v1 * b1
				s20 += v2 * b0
				s21 += v2 * b1
				s30 += v3 * b0
				s31 += v3 * b1
				w0, w1, w2, w3 := a0[k+1], a1[k+1], a2[k+1], a3[k+1]
				c0 := *(*float64)(unsafe.Add(pb, stride))
				c1 := *(*float64)(unsafe.Add(pb, stride+8))
				s00 += w0 * c0
				s01 += w0 * c1
				s10 += w1 * c0
				s11 += w1 * c1
				s20 += w2 * c0
				s21 += w2 * c1
				s30 += w3 * c0
				s31 += w3 * c1
				pb = unsafe.Add(pb, 2*stride)
			}
			for ; k < kdim; k++ {
				v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
				b0 := *(*float64)(pb)
				b1 := *(*float64)(unsafe.Add(pb, 8))
				s00 += v0 * b0
				s01 += v0 * b1
				s10 += v1 * b0
				s11 += v1 * b1
				s20 += v2 * b0
				s21 += v2 * b1
				s30 += v3 * b0
				s31 += v3 * b1
				pb = unsafe.Add(pb, stride)
			}
			d0[j], d0[j+1] = s00, s01
			d1[j], d1[j+1] = s10, s11
			d2[j], d2[j+1] = s20, s21
			d3[j], d3[j+1] = s30, s31
		}
		for ; j < jhi; j++ {
			var s0, s1, s2, s3 float64
			pb := unsafe.Pointer(&b.Data[j])
			for k := 0; k < kdim; k++ {
				v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
				bv := *(*float64)(pb)
				s0 += v0 * bv
				s1 += v1 * bv
				s2 += v2 * bv
				s3 += v3 * bv
				pb = unsafe.Add(pb, stride)
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i++ {
		drow := dst.Data[i*n+jlo : i*n+jhi]
		for j := range drow {
			drow[j] = 0
		}
		arow := a.Data[i*kdim : (i+1)*kdim]
		for k, av := range arow {
			brow := b.Data[k*n+jlo : k*n+jhi]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// parallelMulMinRows is the batch height below which ParallelMulTo stays
// serial: smaller products finish faster than goroutine handoff costs.
const parallelMulMinRows = 32

// ParallelMulTo computes dst = a×b like MulTo, sharding the output rows
// across up to workers goroutines. Every output row is produced with the
// same arithmetic order as the serial product, so the result is
// bit-for-bit identical for any worker count.
func ParallelMulTo(dst, a, b *Matrix, workers int) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul inner dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTo dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if workers > a.Rows/parallelMulMinRows {
		workers = a.Rows / parallelMulMinRows
	}
	if workers <= 1 {
		mulRows(dst, a, b, 0, a.Rows)
		return
	}
	chunk := (a.Rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRows(dst, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MulTransA returns aᵀ×b without materializing the transpose.
func MulTransA(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	AddMulTransA(out, a, b)
	return out
}

// AddMulTransA sets dst += aᵀ×b without materializing the transpose or the
// product — the weight-gradient accumulation of backpropagation. Each
// output element sums its products in a register in ascending-k order,
// starting from +0, and is added to dst once, so the result is
// bit-identical to AddInPlace(dst, aᵀ×b) computed into a fresh matrix.
// dst must be a.Cols×b.Cols and must not alias a or b.
//
// The reference product skips zero a-elements. For finite b that skip is
// a no-op: a zero times a finite value is ±0, and adding ±0 cannot change
// a sum that started at +0 (such a sum is never −0). So the branchless
// register-tiled kernel runs whenever every element of b is finite; a b
// holding NaN or ±Inf (a diverging model's gradient) takes the reference
// loop, where 0·Inf must stay skipped rather than become NaN. With AVX2,
// whole 4-row × 8-column panels of dst run on the vector kernel.
func AddMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulTransA dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("mat: AddMulTransA dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if a.Rows == 0 || !allFinite(b.Data) {
		addMulTransARef(dst, a, b)
		return
	}
	m, n, kdim := a.Cols, b.Cols, a.Rows
	lo := 0
	if n8 := n &^ 7; useAVX2 && n8 > 0 {
		lo = m &^ 3
		for i := 0; i < lo; i += 4 {
			gemm4x8(&dst.Data[i*n], n, &a.Data[i], 1, m, &b.Data[0], n, kdim, n8, 1)
		}
		addMulTransAGo(dst, a, b, 0, lo, n8, n)
	}
	addMulTransAGo(dst, a, b, lo, m, 0, n)
}

// addMulTransAGo is the pure-Go kernel of AddMulTransA for finite b,
// restricted to dst rows [lo, hi) and columns [jlo, jhi).
func addMulTransAGo(dst, a, b *Matrix, lo, hi, jlo, jhi int) {
	// Output rows i..i+3 and columns j, j+1 form a 4×2 register tile. For
	// each k the tile reads four consecutive elements of a's row k and two
	// of b's row k; both operands stride by a whole row per k, so the
	// loads walk byte offsets from fixed base pointers (no bounds checks,
	// and no pointer ever leaves its slice). The pointers are formed only
	// for in-range offsets while a.Data and b.Data stay reachable.
	m, n, kdim := a.Cols, b.Cols, a.Rows
	strideA, strideB := uintptr(m)*8, uintptr(n)*8
	i := lo
	for ; i+4 <= hi; i += 4 {
		d0 := dst.Data[i*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		d2 := dst.Data[(i+2)*n : (i+3)*n]
		d3 := dst.Data[(i+3)*n : (i+4)*n]
		pa := unsafe.Pointer(&a.Data[i])
		j := jlo
		for ; j+2 <= jhi; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			pb := unsafe.Pointer(&b.Data[j])
			var oa, ob uintptr
			for k := 0; k < kdim; k++ {
				qa, qb := unsafe.Add(pa, oa), unsafe.Add(pb, ob)
				v0 := *(*float64)(qa)
				v1 := *(*float64)(unsafe.Add(qa, 8))
				v2 := *(*float64)(unsafe.Add(qa, 16))
				v3 := *(*float64)(unsafe.Add(qa, 24))
				b0 := *(*float64)(qb)
				b1 := *(*float64)(unsafe.Add(qb, 8))
				s00 += v0 * b0
				s01 += v0 * b1
				s10 += v1 * b0
				s11 += v1 * b1
				s20 += v2 * b0
				s21 += v2 * b1
				s30 += v3 * b0
				s31 += v3 * b1
				oa += strideA
				ob += strideB
			}
			d0[j] += s00
			d0[j+1] += s01
			d1[j] += s10
			d1[j+1] += s11
			d2[j] += s20
			d2[j+1] += s21
			d3[j] += s30
			d3[j+1] += s31
		}
		for ; j < jhi; j++ {
			var s0, s1, s2, s3 float64
			pb := unsafe.Pointer(&b.Data[j])
			var oa, ob uintptr
			for k := 0; k < kdim; k++ {
				qa := unsafe.Add(pa, oa)
				bv := *(*float64)(unsafe.Add(pb, ob))
				s0 += *(*float64)(qa) * bv
				s1 += *(*float64)(unsafe.Add(qa, 8)) * bv
				s2 += *(*float64)(unsafe.Add(qa, 16)) * bv
				s3 += *(*float64)(unsafe.Add(qa, 24)) * bv
				oa += strideA
				ob += strideB
			}
			d0[j] += s0
			d1[j] += s1
			d2[j] += s2
			d3[j] += s3
		}
	}
	for ; i < hi; i++ {
		drow := dst.Data[i*n+jlo : i*n+jhi]
		pa := unsafe.Pointer(&a.Data[i])
		for j := range drow {
			var s float64
			pb := unsafe.Pointer(&b.Data[jlo+j])
			var oa, ob uintptr
			for k := 0; k < kdim; k++ {
				s += *(*float64)(unsafe.Add(pa, oa)) * *(*float64)(unsafe.Add(pb, ob))
				oa += strideA
				ob += strideB
			}
			drow[j] += s
		}
	}
}

// addMulTransARef is the reference dst += aᵀ×b: per output element, the
// ascending-k sum of a[k][i]·b[k][j] over the k whose a-element is
// non-zero, added to dst once.
func addMulTransARef(dst, a, b *Matrix) {
	m, n := a.Cols, b.Cols
	for i := 0; i < m; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			var s float64
			for k := 0; k < a.Rows; k++ {
				av := a.Data[k*m+i]
				if av == 0 {
					continue
				}
				s += av * b.Data[k*n+j]
			}
			drow[j] += s
		}
	}
}

// allFinite reports whether no element of v is NaN or ±Inf.
func allFinite(v []float64) bool {
	for _, x := range v {
		// x−x is 0 for every finite x and NaN for NaN and ±Inf.
		if x-x != 0 {
			return false
		}
	}
	return true
}

// MulTransB returns a×bᵀ without materializing the transpose.
func MulTransB(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MulTransBTo(out, a, b)
	return out
}

// MulTransBTo computes dst = a×bᵀ, reusing dst's storage — the
// input-gradient product of backpropagation. dst must be a.Rows×b.Rows and
// must not alias a or b. Rows of a and b are both contiguous in k, so a
// 4×2 register tile reads four a rows and two b rows in lockstep; every
// output element is still one ascending-k sum starting from +0, exactly as
// the one-dot-product-at-a-time loop computes it.
func MulTransBTo(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransB dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("mat: MulTransBTo dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	kdim, n := a.Cols, b.Rows
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		a0 := a.Data[i*kdim : (i+1)*kdim]
		a1 := a.Data[(i+1)*kdim : (i+2)*kdim]
		a2 := a.Data[(i+2)*kdim : (i+3)*kdim]
		a3 := a.Data[(i+3)*kdim : (i+4)*kdim]
		d0 := dst.Data[i*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		d2 := dst.Data[(i+2)*n : (i+3)*n]
		d3 := dst.Data[(i+3)*n : (i+4)*n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := b.Data[j*kdim : (j+1)*kdim]
			b1 := b.Data[(j+1)*kdim : (j+2)*kdim]
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for k := range kdim {
				v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
				w0, w1 := b0[k], b1[k]
				s00 += v0 * w0
				s01 += v0 * w1
				s10 += v1 * w0
				s11 += v1 * w1
				s20 += v2 * w0
				s21 += v2 * w1
				s30 += v3 * w0
				s31 += v3 * w1
			}
			d0[j], d0[j+1] = s00, s01
			d1[j], d1[j+1] = s10, s11
			d2[j], d2[j+1] = s20, s21
			d3[j], d3[j+1] = s30, s31
		}
		for ; j < n; j++ {
			brow := b.Data[j*kdim : (j+1)*kdim]
			var s0, s1, s2, s3 float64
			for k := range kdim {
				w := brow[k]
				s0 += a0[k] * w
				s1 += a1[k] * w
				s2 += a2[k] * w
				s3 += a3[k] * w
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*kdim : (i+1)*kdim]
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			brow := b.Data[j*kdim : (j+1)*kdim]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	TransposeTo(out, m)
	return out
}

// TransposeTo sets dst = mᵀ, reusing dst's storage. dst must be
// m.Cols×m.Rows and must not alias m. With a transposed copy of b,
// MulTo(dst, a, bᵀ) computes the same bits as MulTransBTo(dst, a, b):
// both are one ascending-k sum per element starting from +0.
func TransposeTo(dst, m *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("mat: TransposeTo dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Cols, m.Rows))
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			dst.Data[c*dst.Cols+r] = m.Data[r*m.Cols+c]
		}
	}
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	sameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace sets a += b elementwise.
func AddInPlace(a, b *Matrix) {
	sameShape("AddInPlace", a, b)
	if useAVX2 && len(a.Data) > 0 {
		addVec(&a.Data[0], &b.Data[0], len(a.Data))
		return
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Sub returns a-b elementwise.
func Sub(a, b *Matrix) *Matrix {
	sameShape("Sub", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Hadamard returns the elementwise product a∘b.
func Hadamard(a, b *Matrix) *Matrix {
	sameShape("Hadamard", a, b)
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// HadamardInPlace sets a *= b elementwise.
func HadamardInPlace(a, b *Matrix) {
	sameShape("HadamardInPlace", a, b)
	for i := range a.Data {
		a.Data[i] *= b.Data[i]
	}
}

// Scale returns m scaled by s as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v * s
	}
	return out
}

// ScaleInPlace multiplies every element of m by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled sets a += s*b elementwise; the axpy of gradient descent.
func AddScaled(a *Matrix, s float64, b *Matrix) {
	sameShape("AddScaled", a, b)
	if useAVX2 && len(a.Data) > 0 {
		axpyVec(&a.Data[0], s, &b.Data[0], len(a.Data))
		return
	}
	for i := range a.Data {
		a.Data[i] += s * b.Data[i]
	}
}

// Apply returns a new matrix with f applied to every element of m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ApplyInPlace applies f to every element of m in place.
func (m *Matrix) ApplyInPlace(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// AddRowVector adds the 1×Cols vector v to every row of m, in place.
// This is the bias-broadcast used by every layer.
func (m *Matrix) AddRowVector(v *Matrix) {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVector vector is %dx%d, want 1x%d", v.Rows, v.Cols, m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += v.Data[c]
		}
	}
}

// SumRows returns a 1×Cols vector whose entries are the column sums of m;
// the reduction used for bias gradients.
func (m *Matrix) SumRows() *Matrix {
	out := New(1, m.Cols)
	AddSumRows(out, m)
	return out
}

// AddSumRows sets dst += m.SumRows() without allocating the sum vector:
// each column is summed top to bottom from +0 and added to dst once, so
// the result is bit-identical to AddInPlace(dst, m.SumRows()).
func AddSumRows(dst, m *Matrix) {
	if dst.Rows != 1 || dst.Cols != m.Cols {
		panic(fmt.Sprintf("mat: AddSumRows dst is %dx%d, want 1x%d", dst.Rows, dst.Cols, m.Cols))
	}
	for c := range dst.Data {
		var s float64
		for r := 0; r < m.Rows; r++ {
			s += m.Data[r*m.Cols+c]
		}
		dst.Data[c] += s
	}
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for an empty matrix).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	var max float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			b.WriteString("; ")
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(r, c))
		}
	}
	b.WriteByte(']')
	return b.String()
}
