package nn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"geomancy/internal/mat"
)

// trainArena is one training replica's working memory for the whole of a
// Fit: the assembled batch and target matrices, the loss gradient, per
// dense layer the output, dZ and dX buffers, and the transposed weights
// the dX products read. Buffers are allocated once at
// the largest batch height and resliced to each batch's height, so a
// steady-state training step allocates nothing. The arena is live only
// inside Fit: the public Forward, Predict, PredictOne, ValidationLoss and
// ForwardBatch never see its memory, and it leaves the layers' forward
// caches untouched.
type trainArena struct {
	net   *Network      // the replica whose gradient accumulators a step fills
	grads []*mat.Matrix // net.GradsRef(), cached

	// dense is net's layer stack, or nil when net has a recurrent head (or
	// a non-dense layer); such networks keep the allocating
	// Forward/Backward path.
	dense      []*Dense
	x, y, dOut *mat.Matrix
	out        []*mat.Matrix // per layer: the layer's activation output
	dz         []*mat.Matrix // per layer: dLoss/dZ; nil for Linear layers, whose dZ is the upstream gradient
	dx         []*mat.Matrix // per layer: dLoss/dInput; nil for layer 0, whose input gradient is unused
	// wT holds per layer Wᵀ, the right operand of dX = dZ·Wᵀ; nil for
	// layer 0. W changes only at the optimizer step, so transposeWeights
	// refreshes wT once per minibatch. The chunk replicas of a parallel
	// fit share one wT, read-only while the chunks run, just as they
	// share W.
	wT []*mat.Matrix
}

// newTrainArena sizes an arena for batches of up to maxRows samples. A nil
// wT allocates the arena's own transposed weights; a non-nil one is
// another arena's, shared.
func newTrainArena(net *Network, maxRows int, wT []*mat.Matrix) *trainArena {
	a := &trainArena{net: net, grads: net.GradsRef()}
	if net.rec != nil || len(net.flat) == 0 {
		return a
	}
	dense := make([]*Dense, len(net.flat))
	for l, fl := range net.flat {
		d, ok := fl.(*Dense)
		if !ok {
			return a
		}
		dense[l] = d
	}
	a.dense = dense
	a.x = mat.New(maxRows, net.InSize)
	a.y = mat.New(maxRows, 1)
	a.dOut = mat.New(maxRows, net.OutSize())
	a.out = make([]*mat.Matrix, len(dense))
	a.dz = make([]*mat.Matrix, len(dense))
	a.dx = make([]*mat.Matrix, len(dense))
	a.wT = wT
	if wT == nil {
		a.wT = make([]*mat.Matrix, len(dense))
	}
	for l, d := range dense {
		a.out[l] = mat.New(maxRows, d.Out)
		if d.Act != Linear {
			a.dz[l] = mat.New(maxRows, d.Out)
		}
		if l > 0 {
			a.dx[l] = mat.New(maxRows, d.In)
			if wT == nil {
				a.wT[l] = mat.New(d.Out, d.In)
			}
		}
	}
	return a
}

// transposeWeights refreshes wT from the current weights.
func (a *trainArena) transposeWeights() {
	for l, t := range a.wT {
		if t != nil {
			mat.TransposeTo(t, a.dense[l].W)
		}
	}
}

// withRows reslices an arena buffer to its first rows rows in place.
func withRows(m *mat.Matrix, rows int) *mat.Matrix {
	if m == nil {
		return nil
	}
	m.Rows = rows
	m.Data = m.Data[:rows*m.Cols]
	return m
}

// step runs forward and backward over the given anchor rows, leaving
// their gradient in the replica's freshly zeroed accumulators, and
// returns the un-normalized sum of squared errors. batchElems is the
// element count of the whole minibatch the rows belong to; it scales the
// loss gradient (see lossGrad).
func (a *trainArena) step(ds *Dataset, rows []int, batchElems int) float64 {
	for _, g := range a.grads {
		g.Zero()
	}
	if a.dense == nil {
		flat, seq, y := a.net.assembleBatch(ds, rows)
		pred := a.net.Forward(flat, seq)
		dOut := mat.New(pred.Rows, pred.Cols)
		sse := lossGrad(dOut, pred, y, batchElems)
		a.net.Backward(dOut)
		return sse
	}
	b := len(rows)
	x, y := withRows(a.x, b), withRows(a.y, b)
	for i, r := range rows {
		x.SetRow(i, ds.X.Row(r))
		y.Data[i] = ds.Y[r]
	}
	h := x
	for l, d := range a.dense {
		out := withRows(a.out[l], b)
		d.forwardInto(out, h, 1)
		h = out
	}
	g := withRows(a.dOut, b)
	sse := lossGrad(g, h, y, batchElems)
	for l := len(a.dense) - 1; l >= 0; l-- {
		in := x
		if l > 0 {
			in = a.out[l-1]
		}
		dx := withRows(a.dx[l], b)
		a.dense[l].backprop(dx, withRows(a.dz[l], b), g, in, a.out[l], a.wT[l])
		g = dx
	}
	return sse
}

// fitBatch is serial training's minibatch step: the whole batch's
// gradient in net's accumulators, and its MSE.
func (a *trainArena) fitBatch(ds *Dataset, batch []int) float64 {
	a.transposeWeights()
	elems := len(batch) * a.net.OutSize()
	return a.step(ds, batch, elems) / float64(elems)
}

// lossGrad writes dLoss/dPred for a mean-squared error over batchElems
// elements into grad and returns the un-normalized sum of squared errors
// of pred against target. Scaling by the whole batch's element count lets
// a chunk of the batch produce exactly its share of the full-batch
// gradient.
func lossGrad(grad, pred, target *mat.Matrix, batchElems int) float64 {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("nn: MSELoss shape mismatch %dx%d vs %dx%d",
			pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	var sse float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		sse += d * d
		grad.Data[i] = 2 * d / float64(batchElems)
	}
	return sse
}

// gradChunkRows is the fixed shard height of parallel gradient
// accumulation. The chunk structure — not the worker count — determines
// the floating-point reduction order, so training with any Parallelism ≥ 2
// produces one canonical result regardless of how many goroutines actually
// ran (a batch of 32 always reduces as four ordered 8-row chunks).
const gradChunkRows = 8

// chunkPool is parallel training's per-Fit state. Chunk c of every
// minibatch always runs on arena c, whose cloneShared replica aliases the
// network's parameters but owns the accumulators that hold chunk c's
// gradient; after each batch the chunk gradients reduce into the
// network's accumulators in chunk order. The calling goroutine and
// workers-1 helper goroutines, started once per Fit, claim chunks from a
// shared counter; which goroutine ran a chunk never affects its result.
type chunkPool struct {
	arenas  []*trainArena
	sses    []float64
	helpers int
	wake    chan struct{} // one token per helper per batch; closed by close
	batchWG sync.WaitGroup
	exitWG  sync.WaitGroup

	// The batch in flight, published to the helpers by the wake send.
	ds     *Dataset
	batch  []int
	elems  int
	chunks int
	next   atomic.Int64
}

// newChunkPool builds the arenas for batches of up to maxRows samples and
// starts the helpers; close must be called to stop them.
func newChunkPool(n *Network, maxRows, workers int) *chunkPool {
	chunks := (maxRows + gradChunkRows - 1) / gradChunkRows
	p := &chunkPool{
		arenas:  make([]*trainArena, chunks),
		sses:    make([]float64, chunks),
		helpers: min(workers, chunks) - 1,
	}
	for c := range p.arenas {
		var wT []*mat.Matrix
		if c > 0 {
			wT = p.arenas[0].wT
		}
		p.arenas[c] = newTrainArena(n.cloneShared(), min(gradChunkRows, maxRows), wT)
	}
	p.wake = make(chan struct{}, p.helpers)
	p.exitWG.Add(p.helpers)
	for range p.helpers {
		go p.help()
	}
	return p
}

func (p *chunkPool) help() {
	defer p.exitWG.Done()
	for range p.wake {
		p.drain()
		p.batchWG.Done()
	}
}

// drain runs unclaimed chunks of the current batch until none are left.
func (p *chunkPool) drain() {
	for {
		c := int(p.next.Add(1)) - 1
		if c >= p.chunks {
			return
		}
		lo := c * gradChunkRows
		hi := min(lo+gradChunkRows, len(p.batch))
		p.sses[c] = p.arenas[c].step(p.ds, p.batch[lo:hi], p.elems)
	}
}

// fitBatch accumulates one minibatch's gradient into grads (the network's
// accumulators) and returns the batch MSE: the chunks' squared errors
// summed in chunk order over the batch's element count, matching the
// serial path's loss semantics.
func (p *chunkPool) fitBatch(ds *Dataset, batch []int, grads []*mat.Matrix) float64 {
	p.ds, p.batch = ds, batch
	p.elems = len(batch) * p.arenas[0].net.OutSize()
	p.chunks = (len(batch) + gradChunkRows - 1) / gradChunkRows
	p.next.Store(0)
	p.arenas[0].transposeWeights()
	p.batchWG.Add(p.helpers)
	for range p.helpers {
		p.wake <- struct{}{}
	}
	p.drain()
	p.batchWG.Wait()
	for _, g := range grads {
		g.Zero()
	}
	var sse float64
	for c := 0; c < p.chunks; c++ {
		sse += p.sses[c]
		for i, g := range p.arenas[c].grads {
			mat.AddInPlace(grads[i], g)
		}
	}
	return sse / float64(p.elems)
}

// close stops the helper goroutines and waits for them to exit.
func (p *chunkPool) close() {
	close(p.wake)
	p.exitWG.Wait()
}
