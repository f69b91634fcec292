package experiments

import (
	"context"
	"fmt"

	"geomancy/internal/core"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// Fig6Result captures experiment 3 (§VI-c, Fig. 6): a duplicate, untuned
// workload starts partway through a Geomancy-tuned run, changing the
// contention picture; Geomancy must adapt and push performance back up.
type Fig6Result struct {
	// Tuned is the Geomancy-managed workload's series.
	Tuned Series
	// Untuned is the interfering workload's series (it starts at
	// InterferenceStart accesses into the tuned run).
	Untuned Series
	// InterferenceStart is the tuned workload's access index when the
	// second workload appeared.
	InterferenceStart int64
	// PreMean, DipMean, RecoveredMean summarize the tuned workload's
	// throughput before interference, right after it starts, and at the
	// end of the run.
	PreMean, DipMean, RecoveredMean float64
}

// Fig6 runs the dual-workload scenario. The second workload uses its own
// file set (distinct IDs and paths) but the same mounts, so contention is
// shared while the data is not — "they access common mounts, but they do
// not use the same data".
func Fig6(opts Options) (*Fig6Result, error) {
	opts = opts.withDefaults()
	tb, err := newTestbed(opts.Seed)
	if err != nil {
		return nil, err
	}
	defer tb.db.Close()
	if err := tb.bootstrap(opts.BootstrapRuns, opts.Seed+1); err != nil {
		return nil, err
	}

	// Second working set: same shape, different identity.
	files2 := trace.BelleFileSet(opts.Seed + 1000)
	for i := range files2 {
		files2[i].ID += 100
		files2[i].Path = fmt.Sprintf("/belle2/dup/run%02d/sim%02d.root", i/6, i)
	}
	runner2 := workload.NewRunner(tb.cluster, files2, 2, opts.Seed+1001)
	if err := runner2.SpreadEvenly(tb.cluster.DeviceNames()); err != nil {
		return nil, err
	}

	loop, err := core.NewLoop(tb.db, tb.cluster, tb.runner, engineConfig(opts))
	if err != nil {
		return nil, err
	}
	tunedSB := newSeriesBuilder(opts.SeriesWindow)
	loop.Observer = func(res storagesim.AccessResult, wl, run int) {
		tunedSB.add(res.Throughput, res.End-res.Start)
	}
	untunedSB := newSeriesBuilder(opts.SeriesWindow)

	phase1 := opts.Runs / 2
	if phase1 < 1 {
		phase1 = 1
	}
	var preSum float64
	var preN int
	for r := 0; r < phase1; r++ {
		stats, err := loop.RunOnce()
		if err != nil {
			return nil, err
		}
		preSum += stats.MeanThroughput
		preN++
	}
	interferenceStart := tunedSB.count

	// Phase 2: the duplicate workload interleaves with the tuned one.
	var dipSum, recSum float64
	var dipN, recN int
	phase2 := opts.Runs - phase1
	if phase2 < 2 {
		phase2 = 2
	}
	for r := 0; r < phase2; r++ {
		var obsErr error
		if _, err := runner2.RunOnceContext(context.Background(), func(res storagesim.AccessResult, wl, run int) {
			if err := tb.observe(res, wl, run); err != nil && obsErr == nil {
				obsErr = err
			}
			untunedSB.add(res.Throughput, res.End-res.Start)
		}); err != nil {
			return nil, err
		}
		if obsErr != nil {
			return nil, obsErr
		}
		stats, err := loop.RunOnce()
		if err != nil {
			return nil, err
		}
		if r < phase2/2 {
			dipSum += stats.MeanThroughput
			dipN++
		} else {
			recSum += stats.MeanThroughput
			recN++
		}
	}

	tuned := tunedSB.finish("Geomancy-tuned workload")
	for _, mv := range loop.Movements() {
		if mv.Moved > 0 {
			tuned.Movements = append(tuned.Movements, MovementBar{AccessIndex: mv.AccessIndex, Moved: mv.Moved})
		}
	}
	res := &Fig6Result{
		Tuned:             tuned,
		Untuned:           untunedSB.finish("untuned duplicate workload"),
		InterferenceStart: interferenceStart,
	}
	if preN > 0 {
		res.PreMean = preSum / float64(preN)
	}
	if dipN > 0 {
		res.DipMean = dipSum / float64(dipN)
	}
	if recN > 0 {
		res.RecoveredMean = recSum / float64(recN)
	}
	return res, nil
}

// Summary renders the adaptation headline.
func (r *Fig6Result) Summary() string {
	return fmt.Sprintf(
		"Fig. 6 — interference at access %d: tuned workload %s before, %s during early interference, %s after adaptation",
		r.InterferenceStart, GBps(r.PreMean), GBps(r.DipMean), GBps(r.RecoveredMean))
}
