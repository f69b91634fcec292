package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// quickLoop assembles a small closed loop over an in-memory testbed.
func quickLoop(t *testing.T) *Loop {
	t.Helper()
	cluster := storagesim.NewBluesky(13)
	files := trace.BelleFileSet(13)
	runner := workload.NewRunner(cluster, files, 1, 13)
	if err := runner.SpreadEvenly(cluster.DeviceNames()); err != nil {
		t.Fatal(err)
	}
	db, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	loop, err := NewLoop(db, cluster, runner, Config{Epochs: 4, WindowX: 300, CooldownRuns: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	return loop
}

// trainedEngine builds and trains an engine over a fresh seeded DB.
func trainedEngine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	db := seedDB(t, 900)
	cfg := quickCfg()
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}
	return e
}

// matchPredictCandidate checks that an exhaustive (TopK = 0) decision's
// predictions cover every device and equal the per-pair predictCandidate
// reference bit for bit — the regression anchor for the batched path.
func matchPredictCandidate(t *testing.T, e *Engine, files []FileMeta) {
	t.Helper()
	_, decs, err := e.ProposeLayoutContext(context.Background(), files, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		preds := decs[i].Predictions
		if len(preds) != len(e.devices) {
			t.Fatalf("file %d: %d predictions, want %d", f.ID, len(preds), len(e.devices))
		}
		for _, dev := range e.devices {
			if got, want := preds[dev], e.predictCandidate(f, dev); got != want {
				t.Errorf("model %d: file %d on %s: batched %v != per-pair %v",
					e.cfg.ModelNumber, f.ID, dev, got, want)
			}
		}
	}
}

// Every prediction of the batched decision path must reproduce the
// per-pair predictCandidate exactly.
func TestCandidateScoresMatchLegacyPredict(t *testing.T) {
	for _, model := range []int{1, 18} { // dense and recurrent
		e := trainedEngine(t, func(c *Config) {
			c.ModelNumber = model
			c.SeqWindow = 4
		})
		matchPredictCandidate(t, e, []FileMeta{
			{ID: 1, Size: 1e8, Device: "pic"},   // deep history in seedDB
			{ID: 3, Size: 2e8, Device: "var"},   // other history
			{ID: 999, Size: 5e7, Device: "tmp"}, // never accessed
		})
	}
}

// A file listed twice in one decision shares one cache entry: it gets one
// scoring task (two tasks writing one entry would race under the worker
// pool), and both listings decide from the same predictions.
func TestCandidateDuplicateFileIDs(t *testing.T) {
	e := trainedEngine(t, func(c *Config) { c.Parallelism = 2 })
	files := []FileMeta{{ID: 1, Size: 1e8, Device: "pic"}, {ID: 1, Size: 1e8, Device: "pic"}}
	pd, err := e.prepareProposal(context.Background(), files, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.tasks) != 1 || pd.rows() != len(testDevices) {
		t.Fatalf("%d tasks, %d rows; want 1 task of %d rows", len(pd.tasks), pd.rows(), len(testDevices))
	}
	_, decs, err := pd.finish(context.Background(), e.forwardRows(pd.flat, pd.seq, pd.total), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decs[0].Predictions, decs[1].Predictions) {
		t.Fatalf("listings decided from different predictions: %v vs %v", decs[0].Predictions, decs[1].Predictions)
	}
}

// A parallel engine must propose the exact layout a serial engine does at
// the same seed: scoring is bit-identical at any parallelism and the
// rng-consuming selection stays serial in file order.
func TestProposeLayoutParallelMatchesSerial(t *testing.T) {
	for _, model := range []int{1, 18} {
		mkEngine := func() *Engine {
			return trainedEngine(t, func(c *Config) {
				c.ModelNumber = model
				c.SeqWindow = 4
				c.Epsilon = 0.3 // exercise the exploration branch too
			})
		}
		serial := mkEngine()
		parallel := mkEngine()
		parallel.cfg.Parallelism = 4

		files := make([]FileMeta, 40)
		for i := range files {
			files[i] = FileMeta{ID: int64(i%30 + 1), Size: int64(1e6 * (i%7 + 1)), Device: testDevices[i%len(testDevices)]}
		}
		for round := 0; round < 3; round++ {
			ls, ds, err := serial.ProposeLayout(files, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			lp, dp, err := parallel.ProposeLayout(files, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ls) != len(lp) {
				t.Fatalf("model %d round %d: layout sizes differ", model, round)
			}
			for id, dev := range ls {
				if lp[id] != dev {
					t.Errorf("model %d round %d: file %d serial→%s parallel→%s", model, round, id, dev, lp[id])
				}
			}
			for i := range ds {
				if ds[i].Chosen != dp[i].Chosen || ds[i].Random != dp[i].Random {
					t.Errorf("model %d round %d: decision %d differs: %+v vs %+v",
						model, round, i, ds[i], dp[i])
				}
			}
		}
	}
}

// Training with Parallelism 2 and 8 must produce identical models: the
// chunked gradient reduction is canonical for every worker count ≥ 2.
func TestTrainParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	train := func(par int) TrainReport {
		db := seedDB(t, 900)
		cfg := quickCfg()
		cfg.Parallelism = par
		e, err := NewEngine(db, testDevices, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Train()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := train(2), train(8)
	if a.FinalLoss != b.FinalLoss || a.Validation.MARE != b.Validation.MARE {
		t.Errorf("parallelism 2 vs 8: loss %v/%v, MARE %v/%v",
			a.FinalLoss, b.FinalLoss, a.Validation.MARE, b.Validation.MARE)
	}
}

// Cancellation must surface promptly from TrainContext and
// ProposeLayoutContext with the context's error in the chain.
func TestTrainContextCancel(t *testing.T) {
	db := seedDB(t, 900)
	cfg := quickCfg()
	cfg.Epochs = 1000
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.TrainContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("TrainContext(cancelled) = %v, want context.Canceled", err)
	}
	if e.Trained() {
		t.Error("cancelled training must not mark the engine trained")
	}
}

func TestProposeLayoutContextCancel(t *testing.T) {
	e := trainedEngine(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	files := []FileMeta{{ID: 1, Size: 1e6, Device: "pic"}}
	if _, _, err := e.ProposeLayoutContext(ctx, files, nil, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("ProposeLayoutContext(cancelled) = %v, want context.Canceled", err)
	}
}

// The engine's failure modes are typed sentinels callers can match.
func TestSentinelErrors(t *testing.T) {
	empty, err := replaydb.Open(replaydb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	e, err := NewEngine(empty, testDevices, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(); !errors.Is(err, ErrNoTelemetry) {
		t.Errorf("Train on empty DB = %v, want ErrNoTelemetry", err)
	}
	if _, _, err := e.ProposeLayout([]FileMeta{{ID: 1}}, nil, nil); !errors.Is(err, ErrNotTrained) {
		t.Errorf("ProposeLayout untrained = %v, want ErrNotTrained", err)
	}
}

// The loop surfaces cancellation without applying a partial layout.
func TestLoopRunOnceContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	loop := quickLoop(t)
	if _, err := loop.RunOnceContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("RunOnceContext(cancelled) = %v, want context.Canceled", err)
	}
	if loop.AccessCount() != 0 {
		t.Errorf("cancelled run recorded %d accesses before the first item, want 0", loop.AccessCount())
	}
}
