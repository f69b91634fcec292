// Package core implements Geomancy's DRL engine (§V): the component that
// re-trains a neural network on the most recent telemetry in the ReplayDB,
// predicts the throughput of every (file, storage device) pairing —
// including the "don't move" row — and proposes the data layout with the
// highest predicted throughput, exploring randomly 10% of the time.
//
// The engine treats layout optimization as unsupervised deep reinforcement
// learning with measured throughput as the reward (§V-B): it acts (moves
// data), observes the new performance, stores it, and re-trains on the
// outcome of its own actions.
package core

import (
	"context"
	"errors"
	"fmt"
	"geomancy/internal/rng"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"geomancy/internal/agents"
	"geomancy/internal/features"
	"geomancy/internal/mat"
	"geomancy/internal/nn"
	"geomancy/internal/replaydb"
	"geomancy/internal/telemetry"
)

// Sentinel errors of the engine. Callers match with errors.Is; the closed
// loop and the facade surface them unchanged (wrapped with context).
var (
	// ErrNoTelemetry reports an empty training window: the ReplayDB has
	// no access records for any candidate device yet.
	ErrNoTelemetry = errors.New("core: no telemetry in ReplayDB")
	// ErrNotTrained reports a layout proposal requested before the first
	// completed training cycle.
	ErrNotTrained = errors.New("core: engine not trained")
)

// Config tunes the engine. Zero values select the paper's settings.
type Config struct {
	// ModelNumber picks the Table I architecture; default 1, the model
	// the paper deployed.
	ModelNumber int
	// FeatureCount is Z; default 6 (rb, wb, ots, cts, fid, fsid).
	FeatureCount int
	// Epsilon is the random-exploration rate; default 0.1 ("random
	// decisions are used by Geomancy 10% of the runs", §V-H).
	Epsilon float64
	// CooldownRuns is how many workload runs pass between layout changes;
	// default 5 ("Geomancy moves data every five runs", §VI).
	CooldownRuns int
	// WindowX is the number of most recent accesses fetched per device
	// for training; default 2000 (6 devices × 2000 = the paper's 12,000
	// training entries).
	WindowX int
	// Epochs is the training epoch count; default 200 (§V-G).
	Epochs int
	// LearningRate for plain SGD; default 0.05.
	LearningRate float64
	// BatchSize for mini-batch SGD; default 32.
	BatchSize int
	// SmoothWindow is the moving-average window applied to ReplayDB
	// batches; default 8. 1 disables smoothing; negative selects the
	// cumulative average (for the smoothing ablation).
	SmoothWindow int
	// SeqWindow is the BPTT window for recurrent models; default
	// nn.DefaultWindow.
	SeqWindow int
	// Seed drives exploration and weight initialization.
	Seed int64
	// Optimizer overrides SGD when set ("sgd" default, "adam" for the
	// ablation).
	Optimizer string
	// Parallelism bounds the engine's worker pool: candidate feature
	// assembly, the batched-inference GEMMs, and per-minibatch gradient
	// accumulation all fan out across this many goroutines. 1 (the
	// default) reproduces the serial engine bit-for-bit; any value ≥ 2 is
	// deterministic and independent of the actual worker count, because
	// the layout-deciding randomness stays on one goroutine and gradient
	// reduction uses a fixed chunk structure.
	Parallelism int
	// Target selects the modeled performance metric: "throughput" (the
	// paper's choice) or "latency" (the §V-C future-work variant — some
	// workloads are latency-sensitive). With the latency target the
	// engine minimizes predicted access duration instead of maximizing
	// predicted throughput.
	Target string
	// TopK enables candidate pruning: a decision scores each file against
	// only the top-K devices per device class by recent throughput (plus
	// the file's current device) instead of every device, and files whose
	// telemetry has not changed since their last scoring reuse cached
	// scores. 0 (the default) keeps the exhaustive O(files×devices) pass
	// on every decision — the paper's behavior, bit-for-bit.
	TopK int
	// FullRescanEvery is the pruning cadence: with TopK > 0, every Nth
	// decision (and always the first) falls back to the exhaustive pass,
	// re-scoring the full candidate space and refreshing every cache.
	// Default 8. Ignored when TopK is 0.
	FullRescanEvery int
}

func (c Config) withDefaults() Config {
	if c.ModelNumber == 0 {
		c.ModelNumber = 1
	}
	if c.FeatureCount == 0 {
		c.FeatureCount = 6
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.CooldownRuns == 0 {
		c.CooldownRuns = 5
	}
	if c.WindowX == 0 {
		c.WindowX = 2000
	}
	if c.Epochs == 0 {
		c.Epochs = 200
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.SmoothWindow == 0 {
		c.SmoothWindow = 8
	}
	if c.SeqWindow == 0 {
		c.SeqWindow = nn.DefaultWindow
	}
	if c.Optimizer == "" {
		c.Optimizer = "sgd"
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.Target == "" {
		c.Target = TargetThroughput
	}
	if c.FullRescanEvery == 0 {
		c.FullRescanEvery = 8
	}
	return c
}

// Modeling targets.
const (
	TargetThroughput = "throughput"
	TargetLatency    = "latency"
)

// FileMeta is the engine's view of one workload file.
type FileMeta struct {
	ID     int64
	Path   string
	Size   int64
	Device string
}

// Decision records why one file landed where it did.
type Decision struct {
	FileID int64
	// Chosen is the selected device.
	Chosen string
	// Current is the device the file was on.
	Current string
	// Random marks an exploration move.
	Random bool
	// Predictions maps each candidate device to its predicted throughput
	// (bytes/second, denormalized and MAE-adjusted).
	Predictions map[string]float64
}

// TrainReport summarizes one training cycle.
type TrainReport struct {
	Samples    int
	FinalLoss  float64
	Validation nn.Metrics
	Test       nn.Metrics
	Duration   time.Duration
}

// TelemetryStore is the view of the ReplayDB the engine trains from. The
// local *replaydb.DB satisfies it directly; agents.RemoteStore provides
// the same view over the Interface Daemon's wire protocol, preserving the
// paper's decoupling ("the DRL engine requests training data from the
// ReplayDB via the Interface Daemon", §V-E).
type TelemetryStore interface {
	// RecentByDevice returns up to n most recent accesses on a device,
	// oldest first.
	RecentByDevice(device string, n int) []replaydb.AccessRecord
	// RecentByFile returns up to n most recent accesses of a file,
	// oldest first.
	RecentByFile(fileID int64, n int) []replaydb.AccessRecord
}

// Engine is the DRL engine.
type Engine struct {
	cfg Config         //geomancy:ephemeral construction config, re-supplied by NewEngine on restore
	db  TelemetryStore //geomancy:ephemeral external store handle, re-wired at construction
	rng *rng.RNG

	net      *nn.Network
	devices  []string
	devIndex map[string]int //geomancy:ephemeral derived index over devices, rebuilt at construction

	featScaler   features.MinMaxScaler
	targetScaler features.ScalarScaler
	valMetrics   nn.Metrics
	trained      bool

	rewards []float64

	// Batched-inference buffers, reused across decisions.
	scratch nn.Scratch    //geomancy:ephemeral scratch buffer, content meaningless between decisions
	inFlat  *mat.Matrix   //geomancy:ephemeral reusable inference buffer, overwritten per decision
	inSeq   []*mat.Matrix //geomancy:ephemeral reusable inference buffer, overwritten per decision

	// fsids maps a local device index to the fsid feature value the
	// model was trained with. Nil means identity (the engine trained over
	// its own device list); the sharded coordinator points shard-local
	// engines at the global indices so a shard scores candidates with the
	// device IDs the shared network actually learned.
	fsids []int //geomancy:ephemeral structural wiring, re-supplied by NewSharded on restore

	// Candidate-pruning state (cfg.TopK > 0); see prune.go.
	//geomancy:ephemeral store-backed change feed, re-wired at construction; progress is serialized as LastWatermark
	tracker       ChangeTracker
	summarySource SummarySource
	decisionCount uint64
	modelGen      uint64
	lastWatermark uint64
	cache         map[int64]*fileCache

	metrics engineMetrics //geomancy:ephemeral telemetry handles, re-installed by SetMetrics
}

// engineMetrics holds the engine's pre-resolved telemetry handles; all
// fields are nil (no-op) until SetMetrics installs a registry.
type engineMetrics struct {
	trainings    *telemetry.Counter
	trainErrors  *telemetry.Counter
	duration     *telemetry.Gauge
	durationHist *telemetry.Histogram
	loss         *telemetry.Gauge
	samples      *telemetry.Gauge
	valMARE      *telemetry.Gauge
	inferBatch   *telemetry.Histogram
	inferSeconds *telemetry.Gauge
}

// SetMetrics points the engine's training instrumentation at reg: a
// training-cycle counter, duration/loss/sample-count gauges refreshed
// every cycle, and a duration histogram. A nil registry detaches.
func (e *Engine) SetMetrics(reg *telemetry.Registry) {
	e.metrics = engineMetrics{
		trainings:    reg.Counter(telemetry.MetricTrainingsTotal),
		trainErrors:  reg.Counter(telemetry.MetricTrainingErrorsTotal),
		duration:     reg.Gauge(telemetry.MetricTrainingDuration),
		durationHist: reg.Histogram(telemetry.MetricTrainingDurationHist, telemetry.DefDurationBuckets),
		loss:         reg.Gauge(telemetry.MetricTrainingLoss),
		samples:      reg.Gauge(telemetry.MetricTrainingSamples),
		valMARE:      reg.Gauge(telemetry.MetricTrainingValidationMAE),
		inferBatch:   reg.Histogram(telemetry.MetricInferenceBatchSize, telemetry.DefBatchSizeBuckets),
		inferSeconds: reg.Gauge(telemetry.MetricInferenceDuration),
	}
}

// NewEngine builds an engine over the ReplayDB for the given candidate
// devices (the paper's refreshed configuration file of storage points a
// file may occupy, §V-F).
func NewEngine(db TelemetryStore, devices []string, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: engine needs at least one candidate device")
	}
	if cfg.Target != TargetThroughput && cfg.Target != TargetLatency {
		return nil, fmt.Errorf("core: unknown modeling target %q", cfg.Target)
	}
	r := rng.New(cfg.Seed)
	net, err := nn.BuildModel(cfg.ModelNumber, cfg.FeatureCount, r.Rand)
	if err != nil {
		return nil, fmt.Errorf("core: building model: %w", err)
	}
	net.Window = cfg.SeqWindow
	e := &Engine{
		cfg:      cfg,
		db:       db,
		rng:      r,
		net:      net,
		devIndex: make(map[string]int),
		modelGen: 1,
		cache:    make(map[int64]*fileCache),
	}
	// Dirty tracking is a capability, not a requirement: the local
	// *replaydb.DB provides it, a RemoteStore may not. Without it the
	// pruned path still shortlists devices but treats every file as
	// changed on every decision.
	e.tracker, _ = db.(ChangeTracker)
	e.SetDevices(devices)
	return e, nil
}

// SetDevices refreshes the candidate location list. Cached candidate
// scores are laid out per device index, so any device-list change drops
// them and starts a new model generation.
func (e *Engine) SetDevices(devices []string) {
	e.devices = append([]string(nil), devices...)
	e.devIndex = make(map[string]int, len(devices))
	for i, d := range devices {
		e.devIndex[d] = i
	}
	e.cache = make(map[int64]*fileCache)
	e.modelGen++
}

// Devices returns the candidate location list.
func (e *Engine) Devices() []string { return append([]string(nil), e.devices...) }

// Network exposes the model (for persistence and inspection).
func (e *Engine) Network() *nn.Network { return e.net }

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// ShouldAct reports whether the cooldown permits a layout change after the
// given workload run index (runs are 0-based; the first decision happens
// after the first CooldownRuns runs).
func (e *Engine) ShouldAct(run int) bool {
	return (run+1)%e.cfg.CooldownRuns == 0
}

// FeatureVector builds the paper's six-feature vector of one stored
// access: rb, wb, ots (fractional seconds), cts, fid, fsid. The fsid is
// the device's index in devIndex; unknown devices park one past the range.
//
// The volume features enter in log scale (log1p bytes): file sizes are
// log-uniform over three decades, so a linear min-max normalization would
// compress the throughput-deciding distinctions among small transfers
// into a sliver near zero that gradient descent cannot resolve.
func FeatureVector(rec *replaydb.AccessRecord, devIndex map[string]int) []float64 {
	devIdx, ok := devIndex[rec.Device]
	if !ok {
		devIdx = len(devIndex)
	}
	return []float64{
		logBytes(float64(rec.BytesRead)),
		logBytes(float64(rec.BytesWritten)),
		float64(rec.OpenTS) + float64(rec.OpenTMS)/1000,
		float64(rec.CloseTS) + float64(rec.CloseTMS)/1000,
		float64(rec.FileID),
		float64(devIdx),
	}
}

// logBytes is the volume-feature transform.
func logBytes(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Log1p(v)
}

// EncodeTarget maps a raw performance value into model space. Targets are
// modeled in log scale: device throughputs span three-plus decades, and a
// squared-error fit in linear space ignores exactly the small values whose
// relative error Tables II/III report. In log space, MSE is relative
// error.
func EncodeTarget(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Log1p(v)
}

// DecodeTarget inverts EncodeTarget.
func DecodeTarget(v float64) float64 {
	return math.Expm1(v)
}

// featureRow builds the engine's feature vector for a stored access.
func (e *Engine) featureRow(rec *replaydb.AccessRecord) []float64 {
	return FeatureVector(rec, e.devIndex)
}

// SmoothByFile applies moving-average smoothing (window > 1; cumulative
// for window < 0) within each (device, file) subsequence of recs — the
// exported form of the engine's per-data-ID smoothing for the experiment
// harness. Both the targets and the volume features (rows columns 0 and
// 1: rb and wb) are smoothed together, so the feature→target relationship
// survives: smoothing only one side would decouple them.
func SmoothByFile(recs []replaydb.AccessRecord, rows [][]float64, targets []float64, window int) {
	smoothGrouped(recs, rows, targets, window)
}

// smoothKey groups telemetry for smoothing.
type smoothKey struct {
	device string
	fileID int64
}

// smoothGrouped applies the configured smoothing to targets and the rb/wb
// feature columns within each (device, file) subsequence of recs.
// window > 1 selects the moving average, window < 0 the cumulative
// average, anything else is a no-op.
func smoothGrouped(recs []replaydb.AccessRecord, rows [][]float64, targets []float64, window int) {
	if window == 1 || window == 0 {
		return
	}
	smooth := func(sub []float64) []float64 {
		if window > 1 {
			return features.MovingAverage(sub, window)
		}
		return features.CumulativeAverage(sub)
	}
	groups := make(map[smoothKey][]int)
	for i := range recs {
		k := smoothKey{recs[i].Device, recs[i].FileID}
		groups[k] = append(groups[k], i)
	}
	for _, idxs := range groups {
		sub := make([]float64, len(idxs))
		for j, i := range idxs {
			sub[j] = targets[i]
		}
		sub = smooth(sub)
		for j, i := range idxs {
			targets[i] = sub[j]
		}
		if rows == nil {
			continue
		}
		for col := 0; col <= 1; col++ { // rb, wb
			for j, i := range idxs {
				sub[j] = rows[i][col]
			}
			sc := smooth(sub[:len(idxs)])
			for j, i := range idxs {
				rows[i][col] = sc[j]
			}
		}
	}
}

// targetValue extracts the modeled metric from a record: throughput, or
// the open-to-close duration for the latency target.
func (e *Engine) targetValue(rec *replaydb.AccessRecord) float64 {
	if e.cfg.Target == TargetLatency {
		open := float64(rec.OpenTS) + float64(rec.OpenTMS)/1000
		cls := float64(rec.CloseTS) + float64(rec.CloseTMS)/1000
		d := cls - open
		if d < 0 {
			return 0
		}
		return d
	}
	return rec.Throughput
}

// betterScore converts a predicted metric into a maximize-me score.
func (e *Engine) betterScore(pred float64) float64 {
	if e.cfg.Target == TargetLatency {
		return -pred
	}
	return pred
}

// gatherTraining pulls the most recent WindowX accesses per device,
// merges them in time order, and assembles smoothed, normalized training
// data ("All requests for data contain the X most recent accesses for
// each of the storage devices from the ReplayDB, thereby creating a
// batch", §V-E).
func (e *Engine) gatherTraining() (*nn.Dataset, error) {
	var recs []replaydb.AccessRecord
	for _, dev := range e.devices {
		recs = append(recs, e.db.RecentByDevice(dev, e.cfg.WindowX)...)
	}
	if len(recs) == 0 {
		return nil, ErrNoTelemetry
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })

	rows := make([][]float64, len(recs))
	targets := make([]float64, len(recs))
	for i := range recs {
		rows[i] = e.featureRow(&recs[i])
		targets[i] = EncodeTarget(e.targetValue(&recs[i]))
	}
	// Smoothing: moving average (default), cumulative average
	// (SmoothWindow < 0, ablation), or none (SmoothWindow == 1).
	// Smoothing is applied within each (device, file) subsequence — "the
	// data is batched by data ID" (§V-E). Averaging across different
	// files or devices would blur exactly the per-file, per-location
	// throughput differences the model exists to learn (a 583 KB ROOT
	// file and a 1.1 GB one see ~30× different throughput on the same
	// mount through latency amortization).
	smoothGrouped(recs, rows, targets, e.cfg.SmoothWindow)

	x := mat.FromRows(rows)
	e.featScaler.Fit(x)
	xn := e.featScaler.Transform(x)
	e.targetScaler.Fit(targets)
	yn := e.targetScaler.TransformAll(targets)
	return nn.NewDataset(xn, yn), nil
}

// Train re-trains the network on the freshest ReplayDB window using the
// paper's 60/20/20 split, and refreshes the MAE adjustment from the
// validation partition.
func (e *Engine) Train() (TrainReport, error) {
	return e.TrainContext(context.Background())
}

// TrainContext is Train with cancellation: ctx is checked between training
// epochs, and a cancelled cycle returns ctx.Err() without refreshing the
// model's scalers or validation metrics.
func (e *Engine) TrainContext(ctx context.Context) (TrainReport, error) {
	rep, err := e.train(ctx)
	if err != nil {
		e.metrics.trainErrors.Inc()
		return rep, err
	}
	e.metrics.trainings.Inc()
	e.metrics.duration.Set(rep.Duration.Seconds())
	e.metrics.durationHist.Observe(rep.Duration.Seconds())
	e.metrics.loss.Set(rep.FinalLoss)
	e.metrics.samples.Set(float64(rep.Samples))
	e.metrics.valMARE.Set(rep.Validation.MARE)
	return rep, nil
}

func (e *Engine) train(ctx context.Context) (TrainReport, error) {
	ds, err := e.gatherTraining()
	if err != nil {
		return TrainReport{}, err
	}
	train, val, test := ds.Split()
	if train.Len() == 0 {
		return TrainReport{}, fmt.Errorf("core: training partition empty (%d samples)", ds.Len())
	}

	var opt nn.Optimizer
	switch e.cfg.Optimizer {
	case "sgd":
		opt = &nn.SGD{LR: e.cfg.LearningRate}
	case "adam":
		opt = nn.NewAdam(e.cfg.LearningRate / 10)
	default:
		return TrainReport{}, fmt.Errorf("core: unknown optimizer %q", e.cfg.Optimizer)
	}

	start := time.Now() //geomancy:nondeterministic telemetry timestamp: training duration is reported, never fed back into decisions
	loss, err := e.net.Fit(train, nn.FitConfig{
		Epochs:      e.cfg.Epochs,
		BatchSize:   e.cfg.BatchSize,
		Optimizer:   opt,
		Rng:         e.rng.Rand,
		Parallelism: e.cfg.Parallelism,
		Ctx:         ctx,
	})
	if err != nil {
		return TrainReport{}, err
	}
	rep := TrainReport{
		Samples:   ds.Len(),
		FinalLoss: loss,
		Duration:  time.Since(start), //geomancy:nondeterministic telemetry timestamp: training duration is reported, never fed back into decisions
	}
	rep.Validation = e.evaluateDenorm(val)
	rep.Test = e.evaluateDenorm(test)
	e.valMetrics = rep.Validation
	e.trained = true
	e.modelGen++ // new weights, scalers, and MAE adjustment: cached scores are stale
	return rep, nil
}

// Online-update defaults: the incremental cadence fine-tunes on a small
// recent window for a couple of epochs, a fraction of a full cycle's
// cost. Updates step at a fraction of the full-training learning rate:
// the window is tiny and recent-only, so a full-size step lets the
// newest accesses overwrite the ranking learned across the whole
// telemetry history instead of nudging it toward the drift.
const (
	DefaultUpdateWindow  = 96
	DefaultUpdateEpochs  = 2
	DefaultUpdateLRScale = 0.1
)

// Update applies one incremental minibatch update with the default
// window and epoch count. See UpdateContext.
func (e *Engine) Update() (TrainReport, error) {
	return e.UpdateContext(context.Background(), 0, 0)
}

// UpdateContext fine-tunes the trained model on only the newest `window`
// accesses per device (0 selects DefaultUpdateWindow) for `epochs`
// epochs (0 selects DefaultUpdateEpochs), reusing the scalers fitted by
// the last full training cycle instead of refitting them. Holding the
// normalization fixed is what makes the update incremental: the newest
// telemetry — say, a shifted hotspot — dominates the gradient instead of
// being averaged back into a window-wide refit, so the model starts
// tracking drift on the very next decision. Validation metrics and the
// MAE adjustment stay as the last full cycle computed them; an engine
// with no completed full cycle returns ErrNotTrained, an empty window
// ErrNoTelemetry.
func (e *Engine) UpdateContext(ctx context.Context, window, epochs int) (TrainReport, error) {
	if !e.trained {
		return TrainReport{}, ErrNotTrained
	}
	if window <= 0 {
		window = DefaultUpdateWindow
	}
	if epochs <= 0 {
		epochs = DefaultUpdateEpochs
	}
	var recs []replaydb.AccessRecord
	for _, dev := range e.devices {
		recs = append(recs, e.db.RecentByDevice(dev, window)...)
	}
	if len(recs) == 0 {
		e.metrics.trainErrors.Inc()
		return TrainReport{}, ErrNoTelemetry
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })

	rows := make([][]float64, len(recs))
	targets := make([]float64, len(recs))
	for i := range recs {
		rows[i] = e.featureRow(&recs[i])
		targets[i] = EncodeTarget(e.targetValue(&recs[i]))
	}
	// Same per-(device, file) smoothing as a full cycle, so update and
	// retrain samples live on the same scale.
	smoothGrouped(recs, rows, targets, e.cfg.SmoothWindow)
	x := mat.FromRows(rows)
	xn := e.featScaler.Transform(x)
	yn := e.targetScaler.TransformAll(targets)
	ds := nn.NewDataset(xn, yn)

	lr := e.cfg.LearningRate * DefaultUpdateLRScale
	var opt nn.Optimizer
	switch e.cfg.Optimizer {
	case "sgd":
		opt = &nn.SGD{LR: lr}
	case "adam":
		opt = nn.NewAdam(lr / 10)
	default:
		return TrainReport{}, fmt.Errorf("core: unknown optimizer %q", e.cfg.Optimizer)
	}
	start := time.Now() //geomancy:nondeterministic telemetry timestamp: training duration is reported, never fed back into decisions
	loss, err := e.net.Fit(ds, nn.FitConfig{
		Epochs:      epochs,
		BatchSize:   e.cfg.BatchSize,
		Optimizer:   opt,
		Rng:         e.rng.Rand,
		Parallelism: e.cfg.Parallelism,
		Ctx:         ctx,
	})
	if err != nil {
		e.metrics.trainErrors.Inc()
		return TrainReport{}, err
	}
	e.modelGen++ // fine-tuned weights: cached scores are stale
	rep := TrainReport{
		Samples:   ds.Len(),
		FinalLoss: loss,
		Duration:  time.Since(start), //geomancy:nondeterministic telemetry timestamp: training duration is reported, never fed back into decisions
		// The last full cycle's held-out metrics still describe the
		// model; an update's tiny window has no meaningful split.
		Validation: e.valMetrics,
	}
	e.metrics.trainings.Inc()
	e.metrics.duration.Set(rep.Duration.Seconds())
	e.metrics.durationHist.Observe(rep.Duration.Seconds())
	e.metrics.loss.Set(rep.FinalLoss)
	e.metrics.samples.Set(float64(rep.Samples))
	return rep, nil
}

// evaluateDenorm computes prediction metrics on the original throughput
// scale. Relative errors on normalized targets explode near the range
// minimum; real throughputs are safely bounded away from zero, matching
// how the paper reports its error percentages.
func (e *Engine) evaluateDenorm(ds *nn.Dataset) nn.Metrics {
	preds, idx := e.net.Predict(ds)
	if len(preds) == 0 {
		return nn.Metrics{Diverged: true}
	}
	targets := make([]float64, len(idx))
	for i, r := range idx {
		targets[i] = DecodeTarget(e.targetScaler.Inverse(ds.Y[r]))
		preds[i] = DecodeTarget(e.targetScaler.Inverse(clamp01(preds[i])))
	}
	return nn.EvaluatePredictions(preds, targets)
}

// Trained reports whether the engine has completed at least one training
// cycle.
func (e *Engine) Trained() bool { return e.trained }

// fileFeatures are the raw ingredients of a file's candidate rows: the
// averaged recent transfer volumes, the latest close timestamp, and (for
// recurrent models) the raw feature rows of the file's history window.
// They depend only on the file's telemetry and size — not on model
// weights or scalers — so the pruning plane caches them until the file's
// telemetry changes (see prune.go).
type fileFeatures struct {
	rb, wb, ts float64
	hist       [][]float64 // raw history rows, oldest first (recurrent models)
}

// gatherFileFeatures fetches a file's recent history from the ReplayDB
// and reduces it to candidate-row ingredients. A file with no recorded
// telemetry gets a symmetric cold-start prior — half its size split
// evenly between read and write volume: assuming reads only (the old
// prior) mis-ranked write-heavy cold files against devices with
// imbalanced read/write bandwidth, visible on the write-ingest scenario.
func (e *Engine) gatherFileFeatures(f FileMeta, withHist bool) fileFeatures {
	recent := e.db.RecentByFile(f.ID, e.net.Window)
	var ff fileFeatures
	if len(recent) > 0 {
		last := recent[len(recent)-1]
		ff.ts = float64(last.CloseTS) + float64(last.CloseTMS)/1000
		var rbSum, wbSum float64
		for i := range recent {
			rbSum += float64(recent[i].BytesRead)
			wbSum += float64(recent[i].BytesWritten)
		}
		ff.rb = rbSum / float64(len(recent))
		ff.wb = wbSum / float64(len(recent))
	} else {
		ff.rb = float64(f.Size) / 4
		ff.wb = float64(f.Size) / 4
	}
	if withHist {
		ff.hist = make([][]float64, len(recent))
		for i := range recent {
			ff.hist[i] = e.featureRow(&recent[i])
		}
	}
	return ff
}

// fsidOf translates a local device index to the model's fsid feature.
func (e *Engine) fsidOf(devIdx int) float64 {
	if e.fsids != nil && devIdx < len(e.fsids) {
		return float64(e.fsids[devIdx])
	}
	return float64(devIdx)
}

// candidateRow builds the normalized candidate feature row for placing a
// file with ingredients ff on the device at devIdx.
func (e *Engine) candidateRow(ff fileFeatures, fileID int64, devIdx int) []float64 {
	row := []float64{logBytes(ff.rb), logBytes(ff.wb), ff.ts, ff.ts, float64(fileID), e.fsidOf(devIdx)}
	for c, v := range row {
		row[c] = e.featScaler.TransformValue(c, v)
	}
	return row
}

// predictCandidate returns the adjusted predicted throughput (bytes/s) of
// accessing file f when placed on device. For recurrent models the
// candidate row is appended to the file's recent history window. It is
// the per-pair reference the batched decision path is tested against.
func (e *Engine) predictCandidate(f FileMeta, device string) float64 {
	recurrent := e.net.IsRecurrent()
	// Candidate feature row: the file's typical access at this location,
	// stamped at the most recent known time.
	ff := e.gatherFileFeatures(f, recurrent)
	devIdx, ok := e.devIndex[device]
	if !ok {
		devIdx = len(e.devices)
	}
	norm := e.candidateRow(ff, f.ID, devIdx)

	var pred float64
	if recurrent {
		window := make([][]float64, 0, e.net.Window)
		// History rows (normalized), oldest first, padded by repetition.
		hist := make([][]float64, 0, len(ff.hist))
		for _, raw := range ff.hist {
			n := make([]float64, len(raw))
			for c, v := range raw {
				n[c] = e.featScaler.TransformValue(c, v)
			}
			hist = append(hist, n)
		}
		need := e.net.Window - 1
		for len(hist) < need {
			hist = append([][]float64{norm}, hist...)
		}
		window = append(window, hist[len(hist)-need:]...)
		window = append(window, norm)
		pred = e.net.PredictOne(window)
	} else {
		pred = e.net.PredictOne([][]float64{norm})
	}

	raw := DecodeTarget(e.targetScaler.Inverse(clamp01(pred)))
	return nn.AdjustPrediction(raw, e.valMetrics)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// parallelFor runs fn(i) for every i in [0, n) across up to workers
// goroutines, checking ctx between work items. workers ≤ 1 runs inline.
// The iteration partition never affects results: callers only use it for
// independent per-item work.
func parallelFor(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// flatBuf returns the engine's reusable flat-input buffer sized rows×cols.
func (e *Engine) flatBuf(rows, cols int) *mat.Matrix {
	if e.inFlat == nil || e.inFlat.Rows != rows || e.inFlat.Cols != cols {
		e.inFlat = mat.New(rows, cols)
	}
	return e.inFlat
}

// seqBufs returns the engine's reusable sequence-input buffers: w timestep
// matrices, each rows×cols.
func (e *Engine) seqBufs(w, rows, cols int) []*mat.Matrix {
	if len(e.inSeq) != w {
		e.inSeq = make([]*mat.Matrix, w)
	}
	for t := range e.inSeq {
		if e.inSeq[t] == nil || e.inSeq[t].Rows != rows || e.inSeq[t].Cols != cols {
			e.inSeq[t] = mat.New(rows, cols)
		}
	}
	return e.inSeq
}

// forwardRows runs the engine's (timed, observed) batched forward pass
// over already-assembled input rows.
func (e *Engine) forwardRows(flat *mat.Matrix, seq []*mat.Matrix, total int) *mat.Matrix {
	start := time.Now() //geomancy:nondeterministic telemetry timestamp: inference duration is reported, never fed back into decisions
	e.scratch.Parallelism = e.cfg.Parallelism
	out := e.net.ForwardBatch(flat, seq, &e.scratch)
	e.metrics.inferSeconds.Set(time.Since(start).Seconds()) //geomancy:nondeterministic telemetry timestamp: inference duration is reported, never fed back into decisions
	e.metrics.inferBatch.Observe(float64(total))
	return out
}

// ProposeLayout predicts the throughput of every file at every candidate
// location (including not moving it) and returns the layout assigning each
// file to its best predicted location. With probability Epsilon a file is
// assigned a random device instead — the exploration that keeps the
// availability picture fresh (§V-H). The checker validates destinations;
// invalid proposals fall back per the Action Checker rules.
func (e *Engine) ProposeLayout(files []FileMeta, checker *agents.ActionChecker, valid agents.Validator) (map[int64]string, []Decision, error) {
	return e.ProposeLayoutContext(context.Background(), files, checker, valid)
}

// scored is one file's prepared decision material: the decision shell
// with its predictions (every device scored under the current model
// generation) and the validity-filtered candidates the greedy rule
// maximizes over.
type scored struct {
	d       Decision
	passing []agents.Candidate
}

// ProposeLayoutContext is ProposeLayout with cancellation: ctx is checked
// between candidate-scoring batches. The decision runs through the
// three-stage pipeline in propose.go — prepare (cache invalidation, task
// list and row assembly; exhaustive unless Config.TopK > 0 prunes), one
// batched forward pass, finish (denormalization, cache writeback,
// selection). The per-file validity filters fan out over the worker pool;
// only the ε-greedy selection — the part that draws from e.rng — runs
// serially in file order, so a fixed seed replays identically at any
// Parallelism.
func (e *Engine) ProposeLayoutContext(ctx context.Context, files []FileMeta, checker *agents.ActionChecker, valid agents.Validator) (map[int64]string, []Decision, error) {
	pd, err := e.prepareProposal(ctx, files, checker, valid)
	if err != nil {
		return nil, nil, err
	}
	var out *mat.Matrix
	if pd.rows() > 0 {
		out = e.forwardRows(pd.flat, pd.seq, pd.total)
	}
	return pd.finish(ctx, out, 0)
}

// selectLayout runs the serial ε-greedy selection over prepared decision
// material. This is the only stage that draws from e.rng.
func (e *Engine) selectLayout(files []FileMeta, pre []scored, checker *agents.ActionChecker, valid agents.Validator) (map[int64]string, []Decision, error) {
	layout := make(map[int64]string, len(files))
	decisions := make([]Decision, 0, len(files))
	for i := range files {
		f := files[i]
		d := pre[i].d
		if e.rng.Float64() < e.cfg.Epsilon {
			// Exploration: random movement, still subject to validation.
			// The shuffle always spans the full device width, built only
			// for the files that actually explore. The choice depends only
			// on which devices validate, never on scores (Predicted stays
			// zero), so a pruned and an exhaustive decision explore
			// identically.
			d.Random = true
			shuffled := make([]agents.Candidate, len(e.devices))
			for j, dev := range e.devices {
				shuffled[j] = agents.Candidate{Device: dev}
			}
			e.rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
			passing := checker.Filter(shuffled, f.Size, valid)
			if len(passing) > 0 {
				d.Chosen = passing[0].Device
			} else {
				d.Chosen = f.Device
			}
		} else if passing := pre[i].passing; len(passing) > 0 {
			// The checker's greedy rule over the precomputed valid set.
			best := passing[0]
			for _, c := range passing[1:] {
				if c.Predicted > best.Predicted {
					best = c
				}
			}
			d.Chosen = best.Device
		} else if len(checker.AllDevices) > 0 {
			// "In case all storage devices are invalid, a random movement
			// is performed" (§V-H).
			d.Chosen = checker.AllDevices[checker.Rng.Intn(len(checker.AllDevices))]
			d.Random = true
		} else {
			d.Chosen = f.Device // nowhere to go: stay put
		}
		layout[f.ID] = d.Chosen
		decisions = append(decisions, d)
	}
	return layout, decisions, nil
}

// RecordReward stores the throughput delta observed after a layout change:
// "any increase in the throughput of the workload [is] a positive reward"
// (§V). The history feeds diagnostics and tests.
func (e *Engine) RecordReward(before, after float64) float64 {
	r := after - before
	e.rewards = append(e.rewards, r)
	return r
}

// Rewards returns the reward history.
func (e *Engine) Rewards() []float64 { return append([]float64(nil), e.rewards...) }
