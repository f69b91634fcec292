package experiments

import (
	"context"
	"fmt"
	"geomancy/internal/rng"
	"sort"

	"geomancy/internal/core"
	"geomancy/internal/features"
	"geomancy/internal/mat"
	"geomancy/internal/nn"
	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/scenario"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
)

// testbed bundles one fresh simulated system.
type testbed struct {
	cluster *storagesim.Cluster
	files   []trace.BelleFile
	runner  scenario.Workload
	db      *replaydb.DB
	// bookkeeping for policy state
	lastAccess map[int64]float64
	accesses   map[int64]int64
}

// newTestbed builds a Bluesky cluster with the BELLE II working set spread
// evenly — the starting state of the paper's experiments.
func newTestbed(seed int64) (*testbed, error) {
	return newScenarioTestbed("belle", seed)
}

// newScenarioTestbed builds a Bluesky cluster driven by the named
// scenario from the workload plane, its population spread evenly.
func newScenarioTestbed(scenarioName string, seed int64) (*testbed, error) {
	cluster := storagesim.NewBluesky(seed)
	runner, err := scenario.New(scenarioName, cluster, nil, seed)
	if err != nil {
		return nil, err
	}
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		return nil, err
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		return nil, err
	}
	return &testbed{
		cluster:    cluster,
		files:      runner.Files(),
		runner:     runner,
		db:         db,
		lastAccess: make(map[int64]float64),
		accesses:   make(map[int64]int64),
	}, nil
}

// observe records one access into the db and the policy bookkeeping.
func (tb *testbed) observe(res storagesim.AccessResult, wl, run int) error {
	tb.lastAccess[res.FileID] = res.End
	tb.accesses[res.FileID]++
	_, err := tb.db.AppendAccess(replaydb.AccessRecord{
		Time:         res.Start,
		Workload:     int32(wl),
		Run:          int32(run),
		FileID:       res.FileID,
		Path:         res.Path,
		Device:       res.Device,
		BytesRead:    res.BytesRead,
		BytesWritten: res.BytesWritten,
		OpenTS:       res.OpenTS,
		OpenTMS:      res.OpenTMS,
		CloseTS:      res.CloseTS,
		CloseTMS:     res.CloseTMS,
		Throughput:   res.Throughput,
	})
	return err
}

// policyState snapshots the system the way the paper's base cases see it:
// device throughput from recent ReplayDB telemetry, file recency and
// frequency from the run so far.
func (tb *testbed) policyState() policy.State {
	var s policy.State
	for _, name := range tb.cluster.DeviceNames() {
		recent := tb.db.RecentByDevice(name, 200)
		var tp float64
		if len(recent) > 0 {
			for i := range recent {
				tp += recent[i].Throughput
			}
			tp /= float64(len(recent))
		}
		dev := tb.cluster.Device(name)
		s.Devices = append(s.Devices, policy.DeviceInfo{
			Name:       name,
			Throughput: tp,
			Free:       dev.Free(),
			Class:      dev.Profile.Class,
		})
	}
	layout := tb.cluster.Layout()
	for _, f := range tb.files {
		s.Files = append(s.Files, policy.FileInfo{
			ID:         f.ID,
			Path:       f.Path,
			Size:       f.Size,
			Device:     layout[f.ID],
			LastAccess: tb.lastAccess[f.ID],
			Accesses:   tb.accesses[f.ID],
		})
	}
	return s
}

// bootstrap runs warm-up workload runs with occasional random shuffles so
// every device accumulates telemetry, mirroring the paper's pre-experiment
// capture of 10,000 accesses per file set.
func (tb *testbed) bootstrap(runs int, seed int64) error {
	shuffler := &policy.RandomDynamic{Rng: rng.New(seed)}
	for r := 0; r < runs; r++ {
		var obsErr error
		if _, err := tb.runner.RunOnceContext(context.Background(), func(res storagesim.AccessResult, wl, run int) {
			if err := tb.observe(res, wl, run); err != nil && obsErr == nil {
				obsErr = err
			}
		}); err != nil {
			return err
		}
		if obsErr != nil {
			return obsErr
		}
		layout, err := shuffler.Propose(context.Background(), tb.policyState())
		if err != nil {
			return err
		}
		if layout != nil {
			if _, err := tb.runner.ApplyLayout(layout); err != nil {
				return err
			}
		}
	}
	return nil
}

// bootstrapUntil keeps running bootstrap rounds until the named device has
// accumulated at least target telemetry records (bounded by a generous run
// cap so a misconfigured target cannot spin forever).
func (tb *testbed) bootstrapUntil(device string, target int, opts Options, seed int64) error {
	const roundRuns = 5
	maxRounds := 200
	for round := 0; round < maxRounds; round++ {
		if len(tb.db.RecentByDevice(device, target)) >= target {
			return nil
		}
		if err := tb.bootstrap(roundRuns, seed+int64(round)); err != nil {
			return err
		}
	}
	if got := len(tb.db.RecentByDevice(device, target)); got < target/4 {
		return fmt.Errorf("experiments: device %s accumulated only %d of %d records", device, got, target)
	}
	return nil
}

// deviceDataset assembles the normalized, smoothed training dataset of one
// mount's telemetry — the per-mount modeling task of Tables II and III.
// The returned scaler denormalizes targets back to bytes/second so error
// percentages are computed on the real throughput scale (as the paper
// reports them), not on normalized values that pass near zero.
func deviceDataset(db *replaydb.DB, device string, devIndex map[string]int, windowX, smooth int) (*nn.Dataset, *features.ScalarScaler, error) {
	recs := db.RecentByDevice(device, windowX)
	if len(recs) < 20 {
		return nil, nil, fmt.Errorf("experiments: only %d records for device %s", len(recs), device)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	rows := make([][]float64, len(recs))
	targets := make([]float64, len(recs))
	for i := range recs {
		rows[i] = core.FeatureVector(&recs[i], devIndex)
		targets[i] = recs[i].Throughput
	}
	// Smooth per data ID (§V-E): mixing files would blur the per-file
	// throughput differences the features predict.
	core.SmoothByFile(recs, rows, targets, smooth)
	// Model the target in log space (see core.EncodeTarget).
	for i := range targets {
		targets[i] = core.EncodeTarget(targets[i])
	}
	var fs features.MinMaxScaler
	x := fs.FitTransform(mat.FromRows(rows))
	ts := &features.ScalarScaler{}
	ts.Fit(targets)
	return nn.NewDataset(x, ts.TransformAll(targets)), ts, nil
}

// denormMetrics evaluates predictions against targets on the original
// throughput scale.
func denormMetrics(preds []float64, test *nn.Dataset, idx []int, scaler *features.ScalarScaler) nn.Metrics {
	if len(preds) == 0 {
		return nn.Metrics{Diverged: true}
	}
	targets := make([]float64, len(idx))
	out := make([]float64, len(preds))
	for i, r := range idx {
		targets[i] = core.DecodeTarget(scaler.Inverse(test.Y[r]))
		p := preds[i]
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		out[i] = core.DecodeTarget(scaler.Inverse(p))
	}
	return nn.EvaluatePredictions(out, targets)
}

// deviceIndex maps device names to their profile-order index.
func deviceIndex(names []string) map[string]int {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	return idx
}
