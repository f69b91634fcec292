package main

import (
	"context"
	"fmt"
	"math/rand"

	"geomancy"
	"geomancy/internal/scenario"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// accessesPerRun is the scenarios' expected accesses per workload run
// (scenario.CoreConfig.OpsPerRun's default, and the BELLE II suite's
// mean); the warm-up length is derived from it.
const accessesPerRun = 360

// parallelism pins the engine's worker pool so the numbers do not depend
// on the machine's core count beyond two.
const parallelism = 2

// workloadNames lists the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"belle-paper", "warehouse-sharded", "ingest-distributed"}

// config is one workload's system configuration and episode shape.
type config struct {
	scenario    string
	files       []trace.BelleFile          // nil: the scenario's default set
	profiles    []storagesim.DeviceProfile // nil: the Bluesky cluster
	epochs      int                        // training epochs per decision
	window      int                        // per-device ReplayDB training window
	cooldown    int                        // runs per decision cycle
	wal         bool                       // WAL-backed ReplayDB (else memory)
	shards      int                        // sharded coordinator width (0: off)
	topK        int                        // candidate pruning (0: exhaustive)
	distributed bool                       // loopback agents plane
	cycles      int                        // decision cycles per episode
	restores    int                        // restores timed at each episode start
}

// workloadConfig returns the named workload's configuration for seed.
// tiny shrinks every size for the smoke tests; the benchmark never sets
// it.
func workloadConfig(name string, seed int64, tiny bool) (config, error) {
	switch name {
	case "belle-paper":
		// The paper's loop at cmd/geomancy's defaults.
		c := config{scenario: "belle", epochs: 40, window: 1000, cooldown: 5, wal: true, cycles: 4, restores: 9}
		if tiny {
			c.epochs, c.window, c.cycles = 1, 100, 2
		}
		return c, nil
	case "warehouse-sharded":
		nFiles, nDev, shards := 4096, 256, 16
		c := config{scenario: "zipfian-hot", epochs: 4, window: 32, cooldown: 5, shards: shards, topK: 2, cycles: 8, restores: 5}
		if tiny {
			nFiles, nDev, c.shards, c.window, c.epochs, c.cycles = 128, 32, 4, 8, 1, 2
		}
		c.files, c.profiles = warehouse(seed, nFiles, nDev)
		return c, nil
	case "ingest-distributed":
		c := config{scenario: "write-ingest", epochs: 4, window: 1000, cooldown: 5, wal: true, distributed: true, cycles: 8, restores: 9}
		if tiny {
			c.epochs, c.window, c.cycles = 1, 100, 2
		}
		return c, nil
	}
	return config{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// warehouse generates the warehouse-scale population from seed: nDev
// devices in eight hardware classes, class c near (8−c) GB/s with a ±10%
// per-device spread, and nFiles files of 100–500 MB.
func warehouse(seed int64, nFiles, nDev int) ([]trace.BelleFile, []storagesim.DeviceProfile) {
	r := rand.New(rand.NewSource(seed))
	profiles := make([]storagesim.DeviceProfile, nDev)
	for i := range profiles {
		class := i % 8
		bw := float64(8-class) * 1e9 * (0.9 + 0.2*r.Float64())
		profiles[i] = storagesim.DeviceProfile{
			Name:     fmt.Sprintf("dev%03d", i),
			Class:    fmt.Sprintf("class%d", class),
			ReadBW:   bw,
			WriteBW:  bw,
			Capacity: 1e13,
		}
	}
	files := make([]trace.BelleFile, nFiles)
	for i := range files {
		files[i] = trace.BelleFile{
			ID:   int64(i + 1),
			Path: fmt.Sprintf("/wh/f%04d", i),
			Size: int64(1e8 + r.Float64()*4e8),
		}
	}
	return files, profiles
}

// options returns the facade options that build (or restore) this
// workload's system. wal is the ReplayDB log path (ignored for memory
// workloads) and reg the telemetry registry (nil: none).
func (c config) options(seed int64, wal string, reg *geomancy.Metrics, p *probe) []geomancy.Option {
	opts := []geomancy.Option{
		geomancy.WithSeed(seed),
		geomancy.WithModel(1),
		geomancy.WithCooldown(c.cooldown),
		geomancy.WithEpochs(c.epochs),
		geomancy.WithTrainingWindow(c.window),
		geomancy.WithParallelism(parallelism),
		geomancy.WithBootstrapRuns(c.warmupRuns()),
		geomancy.WithWorkload(p.builder(c.scenario)),
	}
	if c.files != nil {
		opts = append(opts, geomancy.WithFiles(c.files))
	}
	if c.profiles != nil {
		opts = append(opts, geomancy.WithDevices(c.profiles))
	}
	if c.wal {
		opts = append(opts, geomancy.WithReplayDB(wal))
	}
	if c.shards > 0 {
		opts = append(opts, geomancy.WithShards(c.shards))
	}
	if c.topK > 0 {
		opts = append(opts, geomancy.WithTopK(c.topK))
	}
	if c.distributed {
		opts = append(opts, geomancy.WithDistributed())
	}
	if reg != nil {
		opts = append(opts, geomancy.WithTelemetry(reg))
	}
	return opts
}

// warmupRuns is the set-up's telemetry-only bootstrap (WithBootstrapRuns):
// twice the runs an even spread of accessesPerRun accesses needs to put
// window records on every device, rounded up to a whole decision cycle.
// Access shares per device are uneven, hence the factor two. The first
// measured decision then trains on full windows, so every measured cycle
// costs what a steady-state cycle costs.
func (c config) warmupRuns() int {
	devices := len(c.profiles)
	if devices == 0 {
		devices = len(storagesim.BlueskyProfiles())
	}
	n := (2*c.window*devices + accessesPerRun - 1) / accessesPerRun
	return (n + c.cooldown - 1) / c.cooldown * c.cooldown
}

// candidateWidth is the number of devices each file is scored against in
// an exhaustive pass: every device, or the file's shard when sharded.
func (c config) candidateWidth(devices int) int {
	if c.shards > 0 {
		return devices / c.shards
	}
	return devices
}

// probe is the benchmark's view into the running system: the span
// recorder (nil while untraced) and the IDs of the spans the workload
// wrapper opened during the current run.
type probe struct {
	rec      *Recorder
	run      int // measured run index of the open run span
	parent   int // open run span
	scenario int // scenario.run span of the current run (-1: none yet)
	apply    int // storagesim.apply span of the current run (-1: none)
}

// builder returns a WorkloadBuilder for the named scenario whose workload
// reports its layer boundaries to p.
func (p *probe) builder(name string) geomancy.WorkloadBuilder {
	return func(cluster *storagesim.Cluster, files []geomancy.File, seed int64) (geomancy.Workload, error) {
		w, err := scenario.New(name, cluster, files, seed)
		if err != nil {
			return nil, err
		}
		return &timedWorkload{Workload: w, p: p}, nil
	}
}

// timedWorkload wraps a scenario workload with spans around the access
// path (RunOnceContext, minus the observer callback that records each
// access into the ReplayDB or the monitoring agents) and the layout
// apply. Every other method is the embedded workload's own. The program
// type-asserts a workload for no optional interface, so embedding the
// scenario.Workload contract forwards everything it can call.
type timedWorkload struct {
	geomancy.Workload
	p *probe
}

var _ scenario.Workload = (*timedWorkload)(nil)

// RunOnce forwards to RunOnceContext so both entry points are timed.
func (w *timedWorkload) RunOnce(obs workload.Observer) (workload.RunStats, error) {
	return w.RunOnceContext(context.Background(), obs)
}

// RunOnceContext spans the workload run and every observer callback.
func (w *timedWorkload) RunOnceContext(ctx context.Context, obs workload.Observer) (workload.RunStats, error) {
	rec := w.p.rec
	if rec == nil {
		return w.Workload.RunOnceContext(ctx, obs)
	}
	run := w.p.run
	id := rec.Begin("scenario.run", w.p.parent, run)
	w.p.scenario = id
	st, err := w.Workload.RunOnceContext(ctx, func(res storagesim.AccessResult, wl, r int) {
		cb := rec.Begin("replaydb.record", id, run)
		obs(res, wl, r)
		rec.End(cb)
	})
	rec.End(id)
	return st, err
}

// ApplyLayout spans the in-process layout apply.
func (w *timedWorkload) ApplyLayout(layout map[int64]string) ([]storagesim.MoveResult, error) {
	id := w.p.rec.Begin("storagesim.apply", w.p.parent, w.p.run)
	w.p.apply = id
	moves, err := w.Workload.ApplyLayout(layout)
	w.p.rec.End(id)
	return moves, err
}
