package scenario

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"geomancy/internal/generator"
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// Phase overrides the operation mix from a given run onward; the last
// phase whose StartRun is ≤ the current run counter is active. Scenarios
// use phases to switch regimes mid-experiment (ingest burst, then
// read-mostly analysis) without a second workload object.
type Phase struct {
	// StartRun is the first run (0-based) the phase applies to.
	StartRun int
	// ReadFraction replaces CoreConfig.ReadFraction while active.
	ReadFraction float64
}

// CoreConfig parameterizes the Core workload: operation count and mix,
// the key-chooser distribution, access-size bounds, and the optional
// regime modifiers (hot-set rotation, tenant alternation, ingest mode,
// phase schedule). The zero value is not runnable; NewCore validates and
// fills defaults.
type CoreConfig struct {
	// Name is the scenario name reported by Workload.Name.
	Name string
	// OpsPerRun is the number of accesses per run (default 360,
	// matching the BELLE II suite's expected per-run access count).
	OpsPerRun int
	// ReadFraction is the probability an operation reads (the rest
	// write). Default 0.95.
	ReadFraction float64
	// FracLo and FracHi bound the uniformly drawn fraction of the file
	// touched per access. Defaults 0.3 and 1.0.
	FracLo, FracHi float64
	// Chooser draws file indices (reduced mod the population size). It
	// is the scenario's distribution: zipfian, hotspot, counter, …
	Chooser generator.Generator
	// ShiftEvery, when positive, rotates the index space every
	// ShiftEvery runs by ShiftFrac of the population — the hot set
	// migrates across the file set as a pure function of the run
	// counter.
	ShiftEvery int
	// ShiftFrac is the fraction of the population each rotation hops.
	ShiftFrac float64
	// TenantPeriod, when positive, splits the population into two
	// tenant halves and alternates which half receives TenantShare of
	// the operations every TenantPeriod runs — a diurnal pattern.
	TenantPeriod int
	// TenantShare is the active tenant's share of operations (default
	// 0.9).
	TenantShare float64
	// Ingest, when true, makes writes append at a moving head (a
	// counter over the index space) while reads trail it by the
	// Chooser's draw — YCSB's "latest" pattern over files.
	Ingest bool
	// Phases optionally re-parameterizes the mix over time; entries
	// must be sorted by StartRun.
	Phases []Phase
}

// Core is the configurable scenario workload: each run performs
// OpsPerRun accesses whose targets come from a serializable generator
// chain over one checkpointable RNG stream. Every regime modifier is a
// pure function of (config, run counter, stream), so a Core restored
// from MarshalState continues bit-identically.
type Core struct {
	cfg     CoreConfig          //geomancy:ephemeral construction config, re-supplied by NewCore on restore
	files   []trace.BelleFile   //geomancy:ephemeral construction arg, re-supplied by NewCore on restore
	cluster *storagesim.Cluster //geomancy:ephemeral serialized separately as the checkpoint's ClusterState
	rng     *rng.RNG
	runs    int
	chooser generator.Generator
	// head is the ingest write head (Ingest mode only).
	head *generator.Counter
}

// NewCore builds a Core workload over cluster and files.
func NewCore(cfg CoreConfig, cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (*Core, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("scenario: core workload needs a name")
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("scenario %s: empty file population", cfg.Name)
	}
	if cfg.Chooser == nil {
		return nil, fmt.Errorf("scenario %s: nil chooser generator", cfg.Name)
	}
	if cfg.OpsPerRun <= 0 {
		cfg.OpsPerRun = 360
	}
	if cfg.ReadFraction <= 0 || cfg.ReadFraction > 1 {
		cfg.ReadFraction = 0.95
	}
	if cfg.FracLo <= 0 {
		cfg.FracLo = 0.3
	}
	if cfg.FracHi <= 0 || cfg.FracHi > 1 {
		cfg.FracHi = 1.0
	}
	if cfg.FracHi < cfg.FracLo {
		cfg.FracHi = cfg.FracLo
	}
	if cfg.TenantShare <= 0 || cfg.TenantShare > 1 {
		cfg.TenantShare = 0.9
	}
	for i := 1; i < len(cfg.Phases); i++ {
		if cfg.Phases[i].StartRun <= cfg.Phases[i-1].StartRun {
			return nil, fmt.Errorf("scenario %s: phases not sorted by StartRun", cfg.Name)
		}
	}
	c := &Core{
		cfg:     cfg,
		files:   files,
		cluster: cluster,
		rng:     rng.New(seed),
		chooser: cfg.Chooser,
	}
	if cfg.Ingest {
		c.head = generator.NewCounter(0)
	}
	return c, nil
}

// Name implements Workload.
func (c *Core) Name() string { return c.cfg.Name }

// Files implements Workload.
func (c *Core) Files() []trace.BelleFile { return c.files }

// Runs implements Workload.
func (c *Core) Runs() int { return c.runs }

// Cluster exposes the underlying cluster for instrumentation.
func (c *Core) Cluster() *storagesim.Cluster { return c.cluster }

// SpreadEvenly implements Workload: round-robin initial placement.
func (c *Core) SpreadEvenly(devices []string) error {
	if len(devices) == 0 {
		return fmt.Errorf("scenario %s: no devices to spread across", c.cfg.Name)
	}
	for i, f := range c.files {
		dev := devices[i%len(devices)]
		if err := c.cluster.PlaceFile(f.ID, f.Path, f.Size, dev); err != nil {
			return fmt.Errorf("scenario %s: placing %s on %s: %w", c.cfg.Name, f.Path, dev, err)
		}
	}
	return nil
}

// ApplyLayout implements Workload: re-homes files per the layout, the
// same skip-invalid-destination semantics as the BELLE II runner.
func (c *Core) ApplyLayout(layout map[int64]string) ([]storagesim.MoveResult, error) {
	var moves []storagesim.MoveResult
	for _, f := range c.files {
		dst, ok := layout[f.ID]
		if !ok {
			continue
		}
		cur, err := c.cluster.File(f.ID)
		if err != nil {
			return moves, err
		}
		if cur.Device == dst {
			continue
		}
		mv, err := c.cluster.Move(f.ID, dst)
		if err != nil {
			continue
		}
		moves = append(moves, mv)
	}
	return moves, nil
}

// readFraction returns the mix in effect for the current run: the last
// phase whose StartRun has been reached, or the base config.
func (c *Core) readFraction() float64 {
	rf := c.cfg.ReadFraction
	for _, p := range c.cfg.Phases {
		if c.runs >= p.StartRun {
			rf = p.ReadFraction
		}
	}
	return rf
}

// pickIndex draws the target file index for one operation. Draw order
// within an operation is fixed (write decision, then index, then
// fraction); every modifier below is deterministic in (runs, stream).
func (c *Core) pickIndex(write bool) int {
	n := int64(len(c.files))
	if c.cfg.Ingest {
		if write {
			// Writes append at the moving head (wrapping over the
			// population: files are overwritten oldest-first).
			return int(c.head.Next(c.rng) % n)
		}
		// Reads trail the head by the chooser's draw — the "latest"
		// pattern: recently written files are the hottest.
		lag := c.chooser.Next(c.rng) % n
		idx := (c.head.Last() - lag) % n
		if idx < 0 {
			idx += n
		}
		return int(idx)
	}
	if c.cfg.TenantPeriod > 0 {
		half := n / 2
		if half < 1 {
			half = 1
		}
		active := int64((c.runs / c.cfg.TenantPeriod) % 2)
		tenant := active
		if c.rng.Float64() >= c.cfg.TenantShare {
			tenant = 1 - active
		}
		idx := c.chooser.Next(c.rng) % half
		return int((tenant*half + idx) % n)
	}
	idx := c.chooser.Next(c.rng) % n
	if c.cfg.ShiftEvery > 0 {
		hop := int64(c.cfg.ShiftFrac * float64(n))
		if hop < 1 {
			hop = 1
		}
		offset := int64(c.runs/c.cfg.ShiftEvery) * hop
		idx = (idx + offset) % n
	}
	return int(idx)
}

// RunOnceContext implements Workload: OpsPerRun accesses drawn from the
// generator chain, with the same stats assembly as the BELLE II runner.
// A cancelled run returns partial statistics with ctx.Err() and does not
// count as completed.
func (c *Core) RunOnceContext(ctx context.Context, obs workload.Observer) (workload.RunStats, error) {
	start := c.cluster.Now()
	stats := workload.RunStats{Run: c.runs}
	lat := telemetry.NewHistogram(telemetry.DefLatencyBuckets)
	rf := c.readFraction()
	var tpSum float64
	for op := 0; op < c.cfg.OpsPerRun; op++ {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		write := c.rng.Float64() >= rf
		f := c.files[c.pickIndex(write)]
		frac := c.cfg.FracLo + (c.cfg.FracHi-c.cfg.FracLo)*c.rng.Float64()
		bytes := int64(float64(f.Size) * frac)
		if bytes <= 0 {
			bytes = 1
		}
		var rb, wb int64
		if write {
			wb = bytes
		} else {
			rb = bytes
		}
		res, err := c.cluster.Access(f.ID, rb, wb)
		if err != nil {
			return stats, fmt.Errorf("scenario %s run %d: %w", c.cfg.Name, c.runs, err)
		}
		stats.Accesses++
		stats.Bytes += rb + wb
		tpSum += res.Throughput
		lat.Observe(res.End - res.Start)
		if obs != nil {
			obs(res, 1, c.runs)
		}
	}
	if stats.Accesses > 0 {
		stats.MeanThroughput = tpSum / float64(stats.Accesses)
		stats.LatencyP50 = lat.Quantile(0.50)
		stats.LatencyP95 = lat.Quantile(0.95)
		stats.LatencyP99 = lat.Quantile(0.99)
	}
	stats.Duration = c.cluster.Now() - start
	c.runs++
	return stats, nil
}

// coreState is the gob-serialized snapshot of a Core workload: the RNG
// register, run counter, and every generator's registers. Configuration
// and population are reconstructed from the scenario name on restore.
type coreState struct {
	RNG     uint64
	Runs    int
	Chooser generator.State
	Head    generator.State
	HasHead bool
}

// MarshalState implements Workload.
func (c *Core) MarshalState() ([]byte, error) {
	st := coreState{
		RNG:     c.rng.State(),
		Runs:    c.runs,
		Chooser: c.chooser.State(),
	}
	if c.head != nil {
		st.Head = c.head.State()
		st.HasHead = true
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("scenario %s: marshaling state: %w", c.cfg.Name, err)
	}
	return buf.Bytes(), nil
}

// UnmarshalState implements Workload.
func (c *Core) UnmarshalState(data []byte) error {
	var st coreState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("scenario %s: unmarshaling state: %w", c.cfg.Name, err)
	}
	if err := c.chooser.RestoreState(st.Chooser); err != nil {
		return fmt.Errorf("scenario %s: restoring chooser: %w", c.cfg.Name, err)
	}
	if st.HasHead {
		if c.head == nil {
			return fmt.Errorf("scenario %s: snapshot has an ingest head but the scenario does not", c.cfg.Name)
		}
		if err := c.head.RestoreState(st.Head); err != nil {
			return fmt.Errorf("scenario %s: restoring ingest head: %w", c.cfg.Name, err)
		}
	} else if c.head != nil {
		return fmt.Errorf("scenario %s: snapshot lacks the ingest head", c.cfg.Name)
	}
	c.rng.SetState(st.RNG)
	c.runs = st.Runs
	return nil
}
