package nn

import "geomancy/internal/mat"

// Scratch holds preallocated activation buffers for ForwardBatch so a
// caller scoring many batches of the same shape (the engine scores one
// candidate batch per decision) allocates per-layer outputs once instead
// of once per layer per call. The zero value is ready to use; a Scratch
// must not be shared between concurrent ForwardBatch calls.
type Scratch struct {
	// Parallelism row-shards the dense-layer GEMMs across this many
	// goroutines when > 1. The result stays bit-identical to the serial
	// product for any setting.
	Parallelism int

	bufs []*mat.Matrix
}

// buf returns the i-th scratch buffer resized to rows×cols, reusing the
// previous allocation when the shape already matches.
func (s *Scratch) buf(i, rows, cols int) *mat.Matrix {
	for len(s.bufs) <= i {
		s.bufs = append(s.bufs, nil)
	}
	if b := s.bufs[i]; b != nil && b.Rows == rows && b.Cols == cols {
		return b
	}
	s.bufs[i] = mat.New(rows, cols)
	return s.bufs[i]
}

// ForwardBatch is the inference-only batched forward pass: one GEMM per
// dense layer over the whole B×Z input matrix, writing activations into
// scratch buffers instead of fresh allocations and leaving the backward
// caches untouched. Outputs are bit-for-bit identical to Forward (and to
// B separate PredictOne calls) — each output row's arithmetic order does
// not depend on the batch size or on Scratch.Parallelism. A nil scratch
// falls back to Forward. Recurrent heads run through the regular
// (allocating) sequence path; only the dense stack uses the scratch.
func (n *Network) ForwardBatch(flat *mat.Matrix, seq []*mat.Matrix, s *Scratch) *mat.Matrix {
	if s == nil {
		return n.Forward(flat, seq)
	}
	var h *mat.Matrix
	if n.rec != nil {
		if len(seq) == 0 {
			panic("nn: recurrent network requires a sequence input")
		}
		h = n.rec.forwardSeq(seq)
	} else {
		if flat == nil {
			panic("nn: dense network requires a flat input")
		}
		h = flat
	}
	for i, l := range n.flat {
		d, ok := l.(*Dense)
		if !ok {
			h = l.forward(h)
			continue
		}
		dst := s.buf(i, h.Rows, d.Out)
		d.forwardInto(dst, h, s.Parallelism)
		h = dst
	}
	return h
}

// cloneShared returns a worker replica of the network: it aliases every
// parameter matrix (so optimizer steps through the original are visible
// immediately) but owns private gradient accumulators and forward caches,
// letting replicas run forward/backward on disjoint sample shards
// concurrently.
func (n *Network) cloneShared() *Network {
	c := &Network{Desc: n.Desc, InSize: n.InSize, Window: n.Window}
	if n.rec != nil {
		c.rec = n.rec.cloneShared()
	}
	for _, l := range n.flat {
		c.flat = append(c.flat, l.cloneShared())
	}
	return c
}
