// Package workload drives the BELLE II-style Monte-Carlo workload of the
// paper's live experiments (§IV) against the simulated cluster: 24 ROOT
// files between 583 KB and 1.1 GB, read-heavy, each file accessed 10–20
// times in succession, acting "as a suite of many applications reading and
// writing many files individually".
//
// Before each access the runner consults its Locator — the paper's
// configuration file that Geomancy rewrites after data movements — so
// layout changes take effect for subsequent reads without restarting the
// workload.
package workload

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"sync"

	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/trace"
)

// Observer receives the telemetry of each access, tagged with the workload
// id and run index; monitoring agents subscribe here.
type Observer func(res storagesim.AccessResult, workloadID, run int)

// MetricsObserver returns an Observer that feeds per-device access
// telemetry into reg: latency and throughput histograms plus access/byte
// counters, all labeled {device="..."}. Per-device metric handles are
// cached so the per-access cost is a few atomic adds. Returns nil for a
// nil registry (a nil Observer is ignored by every caller).
func MetricsObserver(reg *telemetry.Registry) Observer {
	if reg == nil {
		return nil
	}
	type devMetrics struct {
		accesses *telemetry.Counter
		bytes    *telemetry.Counter
		latency  *telemetry.Histogram
		tput     *telemetry.Histogram
	}
	var mu sync.Mutex
	cache := make(map[string]*devMetrics)
	return func(res storagesim.AccessResult, workloadID, run int) {
		mu.Lock()
		m := cache[res.Device]
		if m == nil {
			dev := telemetry.L("device", res.Device)
			m = &devMetrics{
				accesses: reg.Counter(telemetry.MetricAccessesTotal, dev),
				bytes:    reg.Counter(telemetry.MetricAccessBytesTotal, dev),
				latency:  reg.Histogram(telemetry.MetricAccessLatency, telemetry.DefLatencyBuckets, dev),
				tput:     reg.Histogram(telemetry.MetricAccessThroughput, telemetry.DefThroughputBuckets, dev),
			}
			cache[res.Device] = m
		}
		mu.Unlock()
		m.accesses.Inc()
		m.bytes.Add(uint64(res.BytesRead + res.BytesWritten))
		m.latency.Observe(res.End - res.Start)
		m.tput.Observe(res.Throughput)
	}
}

// Runner executes BELLE II runs against a cluster. It is the original
// hardcoded workload of the reproduction and doubles as the "belle"
// scenario of the workload plane (internal/scenario): every method the
// scenario.Workload interface requires lives here.
type Runner struct {
	// ID distinguishes concurrent workloads (experiment 3 runs two).
	//geomancy:ephemeral construction arg, re-supplied by NewRunner on restore
	ID int

	files   []trace.BelleFile   //geomancy:ephemeral construction arg, re-supplied by NewRunner on restore
	cluster *storagesim.Cluster //geomancy:ephemeral serialized separately as the checkpoint's ClusterState
	rng     *rng.RNG
	runs    int
}

// NewRunner returns a workload runner for the given file set.
func NewRunner(cluster *storagesim.Cluster, files []trace.BelleFile, id int, seed int64) *Runner {
	return &Runner{
		ID:      id,
		files:   files,
		cluster: cluster,
		rng:     rng.New(seed),
	}
}

// Name identifies the workload in scenario registries and checkpoints.
func (r *Runner) Name() string { return "belle" }

// Files returns the working set.
func (r *Runner) Files() []trace.BelleFile { return r.files }

// SpreadEvenly places the working set round-robin across the given devices
// — the paper's "basic spread policy (evenly across all available mounts)"
// used as the starting layout for every experiment.
func (r *Runner) SpreadEvenly(devices []string) error {
	if len(devices) == 0 {
		return fmt.Errorf("workload: no devices to spread across")
	}
	for i, f := range r.files {
		dev := devices[i%len(devices)]
		if err := r.cluster.PlaceFile(f.ID, f.Path, f.Size, dev); err != nil {
			return fmt.Errorf("workload: placing %s on %s: %w", f.Path, dev, err)
		}
	}
	return nil
}

// ApplyLayout re-homes files per the layout using cluster moves, returning
// the movements performed. Files absent from the layout stay put.
func (r *Runner) ApplyLayout(layout map[int64]string) ([]storagesim.MoveResult, error) {
	var moves []storagesim.MoveResult
	for _, f := range r.files {
		dst, ok := layout[f.ID]
		if !ok {
			continue
		}
		cur, err := r.cluster.File(f.ID)
		if err != nil {
			return moves, err
		}
		if cur.Device == dst {
			continue
		}
		mv, err := r.cluster.Move(f.ID, dst)
		if err != nil {
			// A single invalid destination must not abort the run;
			// skip the move the way a control agent would log and
			// continue.
			continue
		}
		moves = append(moves, mv)
	}
	return moves, nil
}

// RunStats summarizes one workload run.
type RunStats struct {
	Run            int
	Accesses       int
	Bytes          int64
	MeanThroughput float64
	// Duration is the simulated wall time of the run in seconds.
	Duration float64
	// LatencyP50/P95/P99 are per-access latency percentiles of the run in
	// seconds (YCSB-style measurement, estimated from a fixed-bucket
	// histogram).
	LatencyP50, LatencyP95, LatencyP99 float64
}

// RunOnceContext executes one workload run: every file visited in random
// order, each accessed 10–20 times in succession. The observer (if
// non-nil) sees every access. ctx is checked before every access, and a
// cancelled run returns the partial statistics together with ctx.Err()
// without counting as a completed run.
func (r *Runner) RunOnceContext(ctx context.Context, obs Observer) (RunStats, error) {
	seq := trace.BelleRun(r.rng.Rand, len(r.files))
	start := r.cluster.Now()
	stats := RunStats{Run: r.runs}
	lat := telemetry.NewHistogram(telemetry.DefLatencyBuckets)
	var tpSum float64
	for _, a := range seq {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		f := r.files[a.FileIndex]
		bytes := int64(float64(f.Size) * a.Fraction)
		if bytes <= 0 {
			bytes = 1
		}
		var rb, wb int64
		if a.Write {
			wb = bytes
		} else {
			rb = bytes
		}
		res, err := r.cluster.Access(f.ID, rb, wb)
		if err != nil {
			return stats, fmt.Errorf("workload %d run %d: %w", r.ID, r.runs, err)
		}
		stats.Accesses++
		stats.Bytes += rb + wb
		tpSum += res.Throughput
		lat.Observe(res.End - res.Start)
		if obs != nil {
			obs(res, r.ID, r.runs)
		}
	}
	if stats.Accesses > 0 {
		stats.MeanThroughput = tpSum / float64(stats.Accesses)
		stats.LatencyP50 = lat.Quantile(0.50)
		stats.LatencyP95 = lat.Quantile(0.95)
		stats.LatencyP99 = lat.Quantile(0.99)
	}
	stats.Duration = r.cluster.Now() - start
	r.runs++
	return stats, nil
}

// Runs returns the number of completed runs.
func (r *Runner) Runs() int { return r.runs }

// RunnerState is the serializable snapshot of a runner: the access-order
// stream and the completed-run counter. The file set and cluster binding
// are reconstructed from configuration on restore.
type RunnerState struct {
	RNG  uint64
	Runs int
}

// State captures the runner mid-experiment.
func (r *Runner) State() RunnerState {
	return RunnerState{RNG: r.rng.State(), Runs: r.runs}
}

// RestoreState overwrites the runner's stream and counters with a
// previously captured snapshot.
func (r *Runner) RestoreState(st RunnerState) {
	r.rng.SetState(st.RNG)
	r.runs = st.Runs
}

// MarshalState serializes the runner for checkpoints — the opaque
// workload-state bytes the snapshot plane stores next to the scenario
// name.
func (r *Runner) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r.State()); err != nil {
		return nil, fmt.Errorf("workload: marshaling runner state: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalState restores a runner from MarshalState output.
func (r *Runner) UnmarshalState(data []byte) error {
	var st RunnerState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("workload: unmarshaling runner state: %w", err)
	}
	r.RestoreState(st)
	return nil
}

// Cluster exposes the underlying cluster (examples and experiments use it
// for instrumentation).
func (r *Runner) Cluster() *storagesim.Cluster { return r.cluster }
