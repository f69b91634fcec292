package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"geomancy/internal/mat"
)

// DefaultWindow is the sequence length recurrent models see: the number of
// consecutive past accesses folded into one training sample. Dense models
// ignore it.
const DefaultWindow = 8

// Network is a feed-forward stack, optionally headed by one recurrent layer
// (every recurrent architecture in Table I has exactly one, in first
// position). It predicts a scalar throughput from a feature vector (dense
// models) or from a window of consecutive feature vectors (recurrent
// models).
type Network struct {
	// Desc is the Table I-style architecture description.
	Desc string
	// InSize is the feature count Z.
	InSize int
	// Window is the BPTT window for recurrent networks (DefaultWindow if
	// unset at build time); 1 effectively for dense networks.
	Window int

	rec  seqLayer
	flat []flatLayer
}

// NewNetwork returns an empty network expecting inSize input features.
func NewNetwork(inSize int) *Network {
	return &Network{InSize: inSize, Window: DefaultWindow}
}

// AddDense appends a fully connected layer of the given width.
func (n *Network) AddDense(units int, act Activation, rng *rand.Rand) *Network {
	n.flat = append(n.flat, NewDense(n.lastSize(), units, act, rng))
	return n
}

// AddSimpleRNN sets the recurrent head; valid only as the first layer.
func (n *Network) AddSimpleRNN(units int, act Activation, rng *rand.Rand) *Network {
	n.setRecurrent(NewSimpleRNN(n.InSize, units, act, rng))
	return n
}

// AddLSTM sets the recurrent head; valid only as the first layer.
func (n *Network) AddLSTM(units int, act Activation, rng *rand.Rand) *Network {
	n.setRecurrent(NewLSTM(n.InSize, units, act, rng))
	return n
}

// AddGRU sets the recurrent head; valid only as the first layer.
func (n *Network) AddGRU(units int, act Activation, rng *rand.Rand) *Network {
	n.setRecurrent(NewGRU(n.InSize, units, act, rng))
	return n
}

func (n *Network) setRecurrent(l seqLayer) {
	if n.rec != nil || len(n.flat) > 0 {
		panic("nn: recurrent layer must be the first layer")
	}
	n.rec = l
}

func (n *Network) lastSize() int {
	if len(n.flat) > 0 {
		return n.flat[len(n.flat)-1].outSize()
	}
	if n.rec != nil {
		return n.rec.outSize()
	}
	return n.InSize
}

// IsRecurrent reports whether the network consumes access windows rather
// than single feature vectors.
func (n *Network) IsRecurrent() bool { return n.rec != nil }

// OutSize returns the width of the network output (1 for every Table I
// model).
func (n *Network) OutSize() int { return n.lastSize() }

// String returns the architecture in Table I notation.
func (n *Network) String() string {
	if n.Desc != "" {
		return n.Desc
	}
	var parts []string
	if n.rec != nil {
		parts = append(parts, n.rec.name())
	}
	for _, l := range n.flat {
		parts = append(parts, l.name())
	}
	return strings.Join(parts, ", ")
}

// Params returns all trainable parameter matrices in layer order.
func (n *Network) Params() []*mat.Matrix {
	var ps []*mat.Matrix
	if n.rec != nil {
		ps = append(ps, n.rec.params()...)
	}
	for _, l := range n.flat {
		ps = append(ps, l.params()...)
	}
	return ps
}

// GradsRef returns the matching gradient accumulators.
func (n *Network) GradsRef() []*mat.Matrix {
	var gs []*mat.Matrix
	if n.rec != nil {
		gs = append(gs, n.rec.grads()...)
	}
	for _, l := range n.flat {
		gs = append(gs, l.grads()...)
	}
	return gs
}

// ZeroGrads clears every gradient accumulator, as needed before each
// Forward/Backward pair when driving training by hand.
func (n *Network) ZeroGrads() {
	for _, g := range n.GradsRef() {
		g.Zero()
	}
}

// ParamCount returns the number of trainable scalars.
func (n *Network) ParamCount() int {
	var c int
	for _, p := range n.Params() {
		c += len(p.Data)
	}
	return c
}

// Forward runs a batch through the network. For dense networks pass the
// B×Z feature matrix in flat and nil for seq; for recurrent networks pass
// the T timestep matrices (each B×Z) in seq and nil for flat. The result
// is B×OutSize.
func (n *Network) Forward(flat *mat.Matrix, seq []*mat.Matrix) *mat.Matrix {
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
	for _, l := range n.flat {
		h = l.forward(h)
	}
	return h
}

// Backward propagates dLoss/dOutput through the stack, accumulating
// parameter gradients. Forward must have been called immediately before.
func (n *Network) Backward(dOut *mat.Matrix) {
	g := dOut
	for i := len(n.flat) - 1; i >= 0; i-- {
		g = n.flat[i].backward(g)
	}
	if n.rec != nil {
		n.rec.backwardSeq(g)
	}
}

// FitConfig controls a training run.
type FitConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	// Shuffle reshuffles sample order each epoch when an Rng is provided.
	Rng *rand.Rand
	// Verbose, when non-nil, receives one line per epoch.
	Verbose func(epoch int, trainLoss float64)
	// Validation, when non-nil together with Patience > 0, enables early
	// stopping: training halts when the validation loss has not improved
	// for Patience consecutive epochs.
	Validation *Dataset
	Patience   int
	// Parallelism shards each minibatch's gradient accumulation across
	// this many goroutines. Values ≤ 1 train serially over whole
	// batches. Any value ≥ 2 produces one canonical result independent
	// of the actual worker count: the batch is split into fixed-size
	// chunks whose gradients reduce in chunk order (see gradChunkRows),
	// so equal seeds replay identically on any machine with at least two
	// workers configured.
	Parallelism int
	// Ctx, when non-nil, cancels training between epochs; Fit returns the
	// loss so far together with ctx.Err().
	Ctx context.Context
}

// ErrNoData is returned when a dataset has no usable samples.
var ErrNoData = errors.New("nn: dataset has no samples")

// Fit trains the network on ds with mini-batch gradient descent and MSE
// loss, returning the final training loss. The same entry point serves
// dense and recurrent models; recurrent sample windows are assembled from
// consecutive dataset rows.
func (n *Network) Fit(ds *Dataset, cfg FitConfig) (float64, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = &SGD{LR: 0.01}
	}
	idx := n.sampleIndexes(ds)
	if len(idx) == 0 {
		return 0, ErrNoData
	}
	params := n.Params()
	grads := n.GradsRef()

	// All per-batch working memory lives in arenas sized once here, so
	// steady-state epochs allocate nothing (recurrent heads excepted).
	maxRows := min(cfg.BatchSize, len(idx))
	var serial *trainArena
	var pool *chunkPool
	if cfg.Parallelism > 1 {
		pool = newChunkPool(n, maxRows, cfg.Parallelism)
		defer pool.close()
	} else {
		serial = newTrainArena(n, maxRows, nil)
	}

	var lastLoss float64
	bestVal := math.Inf(1)
	sinceBest := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return lastLoss, err
			}
		}
		if cfg.Rng != nil {
			cfg.Rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		}
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			var loss float64
			if pool != nil {
				loss = pool.fitBatch(ds, batch, grads)
			} else {
				loss = serial.fitBatch(ds, batch)
			}
			epochLoss += loss
			batches++
			cfg.Optimizer.Step(params, grads)
		}
		lastLoss = epochLoss / float64(batches)
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, lastLoss)
		}
		if math.IsNaN(lastLoss) || math.IsInf(lastLoss, 0) {
			// Numerically diverged; further epochs cannot recover.
			return lastLoss, nil
		}
		if cfg.Validation != nil && cfg.Patience > 0 {
			vl := n.ValidationLoss(cfg.Validation)
			if vl < bestVal-1e-12 {
				bestVal = vl
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= cfg.Patience {
					return lastLoss, nil // early stop
				}
			}
		}
	}
	return lastLoss, nil
}

// ValidationLoss computes the MSE of the network over ds without
// training.
func (n *Network) ValidationLoss(ds *Dataset) float64 {
	idx := n.sampleIndexes(ds)
	if len(idx) == 0 {
		return math.Inf(1)
	}
	const chunk = 256
	var total float64
	var count int
	var s Scratch
	for start := 0; start < len(idx); start += chunk {
		end := start + chunk
		if end > len(idx) {
			end = len(idx)
		}
		batch := idx[start:end]
		flat, seq, y := n.assembleBatch(ds, batch)
		pred := n.ForwardBatch(flat, seq, &s)
		loss, _ := MSELoss(pred, y)
		total += loss * float64(len(batch))
		count += len(batch)
	}
	return total / float64(count)
}

// sampleIndexes returns the dataset row indexes usable as sample anchors:
// every row for dense models, rows with a full history window for
// recurrent ones.
func (n *Network) sampleIndexes(ds *Dataset) []int {
	first := 0
	if n.rec != nil {
		first = n.window() - 1
	}
	if ds.Len() <= first {
		return nil
	}
	idx := make([]int, 0, ds.Len()-first)
	for i := first; i < ds.Len(); i++ {
		idx = append(idx, i)
	}
	return idx
}

func (n *Network) window() int {
	if n.Window > 0 {
		return n.Window
	}
	return DefaultWindow
}

// assembleBatch gathers the feature rows (flat or windowed) and target
// column for the given anchor rows.
func (n *Network) assembleBatch(ds *Dataset, rows []int) (*mat.Matrix, []*mat.Matrix, *mat.Matrix) {
	b := len(rows)
	y := mat.New(b, 1)
	for i, r := range rows {
		y.Set(i, 0, ds.Y[r])
	}
	if n.rec == nil {
		flat := mat.New(b, n.InSize)
		for i, r := range rows {
			flat.SetRow(i, ds.X.Row(r))
		}
		return flat, nil, y
	}
	w := n.window()
	seq := make([]*mat.Matrix, w)
	for t := 0; t < w; t++ {
		step := mat.New(b, n.InSize)
		for i, r := range rows {
			step.SetRow(i, ds.X.Row(r-w+1+t))
		}
		seq[t] = step
	}
	return nil, seq, y
}

// Predict returns the network outputs for every usable row of ds, aligned
// with the anchor indexes returned as the second value.
func (n *Network) Predict(ds *Dataset) ([]float64, []int) {
	idx := n.sampleIndexes(ds)
	if len(idx) == 0 {
		return nil, nil
	}
	const chunk = 256
	out := make([]float64, 0, len(idx))
	var s Scratch
	for start := 0; start < len(idx); start += chunk {
		end := start + chunk
		if end > len(idx) {
			end = len(idx)
		}
		flat, seq, _ := n.assembleBatch(ds, idx[start:end])
		pred := n.ForwardBatch(flat, seq, &s)
		for r := 0; r < pred.Rows; r++ {
			out = append(out, pred.At(r, 0))
		}
	}
	return out, idx
}

// PredictOne returns the scalar prediction for a single feature vector
// (dense models) or window of vectors (recurrent models, len == Window).
func (n *Network) PredictOne(features [][]float64) float64 {
	if n.rec == nil {
		if len(features) != 1 {
			panic(fmt.Sprintf("nn: dense model expects 1 feature row, got %d", len(features)))
		}
		x := mat.FromRows(features)
		return n.Forward(x, nil).At(0, 0)
	}
	if len(features) != n.window() {
		panic(fmt.Sprintf("nn: recurrent model expects %d feature rows, got %d", n.window(), len(features)))
	}
	seq := make([]*mat.Matrix, len(features))
	for t, row := range features {
		seq[t] = mat.FromRows([][]float64{row})
	}
	return n.Forward(nil, seq).At(0, 0)
}

// MSELoss returns the mean-squared-error loss between pred and target
// (both B×1) and the gradient dLoss/dPred.
func MSELoss(pred, target *mat.Matrix) (float64, *mat.Matrix) {
	grad := mat.New(pred.Rows, pred.Cols)
	sse := lossGrad(grad, pred, target, len(pred.Data))
	return sse / float64(len(pred.Data)), grad
}
