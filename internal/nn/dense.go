package nn

import (
	"math"
	"math/rand"
	"strconv"

	"geomancy/internal/mat"
)

// layer is the behaviour shared by every layer kind: exposing parameters
// and their gradient accumulators to the optimizer.
type layer interface {
	// name returns the Table I-style description, e.g. "96 (Dense) ReLU".
	name() string
	// outSize is the width of the layer output.
	outSize() int
	params() []*mat.Matrix
	grads() []*mat.Matrix
}

// flatLayer consumes and produces B×F matrices (one row per sample).
type flatLayer interface {
	layer
	forward(x *mat.Matrix) *mat.Matrix
	// backward receives dLoss/dOutput and returns dLoss/dInput, adding
	// parameter gradients into the layer's accumulators.
	backward(dOut *mat.Matrix) *mat.Matrix
	// cloneShared returns a replica sharing this layer's parameter
	// matrices but owning private gradient accumulators and forward
	// caches, so worker replicas can backpropagate concurrently.
	cloneShared() flatLayer
}

// seqLayer consumes a sequence of T timestep matrices (each B×F) and emits
// the final hidden state as a B×H matrix. Recurrent layers appear only
// first in Table I networks, so backwardSeq does not return input grads.
type seqLayer interface {
	layer
	forwardSeq(steps []*mat.Matrix) *mat.Matrix
	backwardSeq(dOut *mat.Matrix)
	// cloneShared mirrors flatLayer.cloneShared for recurrent heads.
	cloneShared() seqLayer
}

// Dense is a fully connected layer computing act(X·W + b).
type Dense struct {
	In, Out int //geomancy:ephemeral In is re-derived from the previous layer's width when rebuilding from LayerSpecs
	Act     Activation

	W, B   *mat.Matrix // weights In×Out, bias 1×Out
	dW, dB *mat.Matrix //geomancy:ephemeral gradient scratch, recomputed by every backward pass

	lastIn, lastOut *mat.Matrix //geomancy:ephemeral forward-pass cache for backward, overwritten every step
}

// NewDense returns a dense layer with Xavier-initialized weights.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W:  mat.New(in, out),
		B:  mat.New(1, out),
		dW: mat.New(in, out),
		dB: mat.New(1, out),
	}
	d.W.XavierInit(rng, in, out)
	return d
}

func (d *Dense) name() string {
	return sprintfLayer(d.Out, "Dense", d.Act)
}

func (d *Dense) outSize() int          { return d.Out }
func (d *Dense) params() []*mat.Matrix { return []*mat.Matrix{d.W, d.B} }
func (d *Dense) grads() []*mat.Matrix  { return []*mat.Matrix{d.dW, d.dB} }

func (d *Dense) forward(x *mat.Matrix) *mat.Matrix {
	out := mat.New(x.Rows, d.Out)
	d.forwardInto(out, x, 1)
	d.lastIn, d.lastOut = x, out
	return out
}

func (d *Dense) cloneShared() flatLayer {
	return &Dense{
		In: d.In, Out: d.Out, Act: d.Act,
		W: d.W, B: d.B,
		dW: mat.New(d.In, d.Out),
		dB: mat.New(1, d.Out),
	}
}

// forwardInto computes act(x·W + b) into dst without touching the
// backward caches — the inference-only fast path. workers > 1 shards the
// GEMM's output rows; every row is bit-identical to the serial product.
func (d *Dense) forwardInto(dst, x *mat.Matrix, workers int) {
	if workers > 1 {
		mat.ParallelMulTo(dst, x, d.W, workers)
	} else {
		mat.MulTo(dst, x, d.W)
	}
	// Fused bias+activation epilogue: one pass over dst instead of an
	// AddRowVector pass plus a per-element method-value call. Each element
	// still computes act(v + b[j]), so results are bit-identical to the
	// per-sample forward path.
	bias := d.B.Data
	n := len(bias)
	switch d.Act {
	case ReLU:
		for r := 0; r < dst.Rows; r++ {
			row := dst.Data[r*n : (r+1)*n]
			for j, bv := range bias {
				v := row[j] + bv
				// Conditional on the integer bit pattern so the compiler
				// emits a branchless select: activation signs are close to
				// random, so a branch here mispredicts half the time. The
				// strict v < 0 test keeps −0 and NaN unchanged, exactly
				// like Activation.Apply.
				bits := math.Float64bits(v)
				if v < 0 {
					bits = 0
				}
				row[j] = math.Float64frombits(bits)
			}
		}
	case Linear:
		for r := 0; r < dst.Rows; r++ {
			row := dst.Data[r*n : (r+1)*n]
			for j, bv := range bias {
				row[j] += bv
			}
		}
	default:
		dst.AddRowVector(d.B)
		dst.ApplyInPlace(d.Act.Apply)
	}
}

func (d *Dense) backward(dOut *mat.Matrix) *mat.Matrix {
	var dz *mat.Matrix
	if d.Act != Linear {
		dz = mat.New(dOut.Rows, dOut.Cols)
	}
	dX := mat.New(dOut.Rows, d.In)
	d.backprop(dX, dz, dOut, d.lastIn, d.lastOut, d.W.Transpose())
	return dX
}

// backprop is the allocation-free backward pass for one layer whose
// forward pass mapped in to out. It writes dLoss/dZ = dOut∘act′(out) into
// dz (unused, and may be nil, for Linear layers, whose dZ is dOut itself),
// adds inᵀ·dZ to dW and the column sums of dZ to dB, and — unless dX is
// nil, as for a network's first layer — writes dLoss/dInput = dZ·Wᵀ into
// dX as the plain product dZ·wT, where wT holds Wᵀ (Out×In), so that it
// runs on the GEMM panel kernel. Every element is computed with the same
// operations in the same order as the allocating Hadamard / MulTransA /
// SumRows / MulTransB formulation, so gradients are bit-identical to it.
func (d *Dense) backprop(dX, dz, dOut, in, out, wT *mat.Matrix) {
	switch d.Act {
	case Linear:
		dz = dOut
	case ReLU:
		o := out.Data[:len(dOut.Data)]
		z := dz.Data[:len(dOut.Data)]
		for i, g := range dOut.Data {
			// Multiplying by a 1/0 mask, selected on integer bits so the
			// compiler can emit a conditional move, keeps g·0 = −0 for
			// negative g and NaN for infinite or NaN g, exactly as
			// g·DerivFromOutput(y) does.
			var mask uint64
			if o[i] > 0 {
				mask = 0x3ff0000000000000 // 1.0
			}
			z[i] = g * math.Float64frombits(mask)
		}
	default:
		for i, g := range dOut.Data {
			dz.Data[i] = g * d.Act.DerivFromOutput(out.Data[i])
		}
	}
	mat.AddMulTransA(d.dW, in, dz)
	mat.AddSumRows(d.dB, dz)
	if dX != nil {
		mat.MulTo(dX, dz, wT)
	}
}

func sprintfLayer(units int, kind string, act Activation) string {
	return strconv.Itoa(units) + " (" + kind + ") " + act.String()
}
