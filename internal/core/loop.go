package core

import (
	"context"
	"errors"
	"fmt"

	"geomancy/internal/agents"
	"geomancy/internal/policy"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// MovementEvent records one layout application for Fig. 5's movement bars:
// how many files moved, aligned to the global access index.
type MovementEvent struct {
	AccessIndex int64
	Moved       int
	Run         int
	// Random counts exploration decisions in the applied layout.
	Random int
}

// SkippedDecision records one decision cycle the loop served in degraded
// mode: agents were unreachable (or telemetry was not yet queryable), so
// the last-known layout was kept instead of aborting the run.
type SkippedDecision struct {
	Run    int
	Reason string
}

// LayoutPusher applies a layout through the distributed control plane
// (agents.Daemon.PushLayout); the loop falls back to the in-process
// Workload.ApplyLayout when none is installed.
type LayoutPusher interface {
	PushLayout(layout map[int64]string) (int, error)
}

// Workload is the loop's view of the driven workload: the minimal
// surface the decide-and-move cycle needs. *workload.Runner and every
// scenario in internal/scenario satisfy it; the full scenario-plane
// contract (naming, checkpoint marshaling) lives in scenario.Workload,
// which embeds this interface.
type Workload interface {
	// Files returns the working set the engine lays out.
	Files() []trace.BelleFile
	// ApplyLayout re-homes files per the layout, returning the moves.
	ApplyLayout(layout map[int64]string) ([]storagesim.MoveResult, error)
	// RunOnceContext executes one workload run, reporting every access
	// to obs.
	RunOnceContext(ctx context.Context, obs workload.Observer) (workload.RunStats, error)
}

// Loop wires the full Geomancy closed loop in-process: workload runs feed
// telemetry into the ReplayDB; every decision cycle the installed Policy
// proposes a layout from a fresh telemetry snapshot, the proposal passes
// the movement scheduler, and the moves are applied with their overhead
// charged to the virtual clock. With the default geomancy policy a cycle
// is the paper's retrain + ε-greedy proposal; baselines decide from the
// same snapshot with no engine at all (Engine stays nil).
//
// The distributed deployment (monitoring/control agents over TCP) lives in
// package agents and cmd/geomancy; Loop is the direct-coupled equivalent
// the experiments use, with identical decision logic.
type Loop struct {
	// Policy decides layouts. NewNamedLoop installs a catalogue policy;
	// NewPolicyLoop accepts any implementation.
	//geomancy:ephemeral serialized separately as the checkpoint's policy blob (Snapshot.Policy)
	Policy policy.Policy
	// Engine is the DRL engine behind an engine-backed Policy; nil when
	// the policy is a baseline heuristic.
	//geomancy:ephemeral snapshots itself as Snapshot.Engine (EngineState)
	Engine *Engine
	// Workload is the driven workload (the paper's BELLE II runner by
	// default; any scenario.Workload otherwise).
	//geomancy:ephemeral snapshots itself as the checkpoint's workload blob
	Workload Workload
	DB       *replaydb.DB          //geomancy:ephemeral external store handle, re-wired at restore
	Cluster  *storagesim.Cluster   //geomancy:ephemeral snapshots itself as Snapshot.Cluster (ClusterState)
	Checker  *agents.ActionChecker //geomancy:ephemeral stateless wiring over the shared RNG, rebuilt at construction

	// model is the policy-plane bridge of an engine-backed policy; its
	// training reports drain into trainLog after every proposal.
	//geomancy:ephemeral rebuilt by loop construction; pending reports drain into the serialized trainLog
	model *EngineModel
	// decideEvery is the decision cadence in runs (CooldownRuns for
	// constructed loops); ≤ 0 disables the automatic cadence, leaving
	// decisions to explicit Decide calls.
	//geomancy:ephemeral construction config (CooldownRuns), re-supplied on rebuild
	decideEvery int
	// lastRun is the index of the last completed workload run, so
	// out-of-cadence Decide calls attribute their movement events.
	lastRun int

	accessCount int64
	movements   []MovementEvent
	trainLog    []TrainReport
	deferrals   []Deferral
	skipped     []SkippedDecision
	// lastAccess / accesses feed the policy snapshot's per-file recency
	// and frequency (the view the paper's base cases decide from).
	lastAccess map[int64]float64
	accesses   map[int64]int64
	// Observer, when set, additionally receives every access.
	Observer workload.Observer
	// Recorder, when set, replaces the direct ReplayDB append on the
	// telemetry path — the distributed deployment routes every access
	// through its monitoring agents instead.
	Recorder func(res storagesim.AccessResult, wl, run int) error
	// Pusher, when set, applies decided layouts through the distributed
	// control plane instead of Runner.ApplyLayout.
	//geomancy:ephemeral deployment wiring, re-installed on rebuild
	Pusher LayoutPusher
	// Flusher, when set, drains buffered telemetry (the monitoring agents'
	// partial batches) after every run, so each run's accesses are fully
	// queryable before the engine's next decision.
	Flusher func() error
	// FailOpen keeps the loop alive through agent outages: when the
	// daemon or a control agent is unreachable during a decision cycle,
	// the loop keeps serving the last-known layout, records the cycle in
	// Skipped, and counts it on the degraded-decisions metric instead of
	// returning an error.
	//geomancy:ephemeral operator config, re-supplied on rebuild
	FailOpen bool
	// Scheduler, when set, gates movements on predicted access gaps (the
	// paper's §X extension). Use EnableGapScheduling to install one wired
	// to the loop's telemetry.
	Scheduler *MoveScheduler

	// metrics instrumentation, installed by SetMetrics; all handles no-op
	// while nil.
	metricsObs   workload.Observer
	movesCtr     *telemetry.Counter //geomancy:ephemeral telemetry counter, re-registered by SetMetrics
	movedBytes   *telemetry.Counter //geomancy:ephemeral telemetry counter, re-registered by SetMetrics
	deferralsCtr *telemetry.Counter //geomancy:ephemeral telemetry counter, re-registered by SetMetrics
	exploreCtr   *telemetry.Counter //geomancy:ephemeral telemetry counter, re-registered by SetMetrics
	degradedCtr  *telemetry.Counter //geomancy:ephemeral telemetry counter, re-registered by SetMetrics
}

// SetMetrics wires the loop (and its engine, when the policy has one) to
// report through reg: per-device access histograms on every recorded
// access, movement / deferral / exploration counters on every layout
// application, and the engine's training gauges. Counters are
// pre-registered so they export at zero before the first decision.
func (l *Loop) SetMetrics(reg *telemetry.Registry) {
	l.metricsObs = workload.MetricsObserver(reg)
	l.movesCtr = reg.Counter(telemetry.MetricMovementsTotal)
	l.movedBytes = reg.Counter(telemetry.MetricMovedBytesTotal)
	l.deferralsCtr = reg.Counter(telemetry.MetricDeferralsTotal)
	l.exploreCtr = reg.Counter(telemetry.MetricExplorationTotal)
	l.degradedCtr = reg.Counter(telemetry.MetricAgentDegradedTotal)
	if l.Engine != nil {
		l.Engine.SetMetrics(reg)
	}
	// Policies carrying their own instrumentation (the sharded
	// coordinator's per-shard counters) register on the same registry.
	if pm, ok := l.Policy.(interface{ SetMetrics(*telemetry.Registry) }); ok {
		pm.SetMetrics(reg)
	}
}

// NewLoop assembles a geomancy-policy loop over an existing
// cluster/runner/db.
func NewLoop(db *replaydb.DB, cluster *storagesim.Cluster, runner Workload, cfg Config) (*Loop, error) {
	return NewLoopWithStore(db, db, cluster, runner, cfg)
}

// NewLoopWithStore assembles a geomancy-policy loop whose engine trains
// through store — e.g. an agents.RemoteStore, preserving the paper's
// decoupling where "the DRL engine requests training data from the
// ReplayDB via the Interface Daemon" (§V-E) — while movement records
// still persist to db.
func NewLoopWithStore(store TelemetryStore, db *replaydb.DB, cluster *storagesim.Cluster, runner Workload, cfg Config) (*Loop, error) {
	return NewNamedLoop(store, db, cluster, runner, "geomancy", cfg)
}

// NewNamedLoop assembles a loop driven by the named placement policy
// from the catalogue (policy.Catalogue; the empty name selects
// "geomancy"). Engine-backed names build the DRL engine from cfg exactly
// as NewLoopWithStore always has; baseline names run engine-free, with
// any stochastic streams derived from cfg.Seed. The decision cadence is
// cfg.CooldownRuns either way.
func NewNamedLoop(store TelemetryStore, db *replaydb.DB, cluster *storagesim.Cluster, runner Workload, name string, cfg Config) (*Loop, error) {
	l := &Loop{
		Workload:    runner,
		DB:          db,
		Cluster:     cluster,
		decideEvery: cfg.withDefaults().CooldownRuns,
		lastRun:     -1,
		lastAccess:  make(map[int64]float64),
		accesses:    make(map[int64]int64),
	}
	var model *EngineModel
	if EngineBacked(name) {
		engine, err := NewEngine(store, cluster.DeviceNames(), cfg)
		if err != nil {
			return nil, err
		}
		model = engine.NewModel(cluster)
	}
	p, err := NewCataloguePolicy(name, model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	l.Policy = p
	l.SetModel(model)
	return l, nil
}

// NewPolicyLoop assembles an engine-free loop driven by p, deciding
// every decideEvery runs (≤ 0 disables the automatic cadence; callers
// then drive decisions with Decide). For an engine-backed policy, attach
// its bridge with SetModel so training reports reach the TrainLog.
func NewPolicyLoop(db *replaydb.DB, cluster *storagesim.Cluster, runner Workload, p policy.Policy, decideEvery int) *Loop {
	return &Loop{
		Policy:      p,
		Workload:    runner,
		DB:          db,
		Cluster:     cluster,
		decideEvery: decideEvery,
		lastRun:     -1,
		lastAccess:  make(map[int64]float64),
		accesses:    make(map[int64]int64),
	}
}

// SetModel installs the engine bridge behind the loop's policy: its
// training reports drain into the TrainLog after every proposal, and its
// engine/checker surface on the Engine/Checker fields for inspection and
// checkpointing. NewNamedLoop installs the bridge automatically; a nil
// model detaches (baseline policies).
func (l *Loop) SetModel(m *EngineModel) {
	l.model = m
	if m != nil {
		l.Engine = m.Engine
		l.Checker = m.Checker
	}
}

// Skipped returns every decision cycle served in degraded mode.
func (l *Loop) Skipped() []SkippedDecision {
	return append([]SkippedDecision(nil), l.skipped...)
}

// degradable reports whether err is an outage the loop may fail open on:
// unreachable agents, or an engine window that came back empty because
// the remote store could not serve it.
func degradable(err error) bool {
	return errors.Is(err, agents.ErrUnavailable) || errors.Is(err, ErrNoTelemetry)
}

// noteDegraded records one fail-open cycle.
func (l *Loop) noteDegraded(run int, err error) {
	l.skipped = append(l.skipped, SkippedDecision{Run: run, Reason: err.Error()})
	l.degradedCtr.Inc()
}

// EnableGapScheduling installs a gap-aware movement scheduler fed by the
// loop's own telemetry and returns its predictor for inspection.
func (l *Loop) EnableGapScheduling() *GapPredictor {
	g := NewGapPredictor()
	l.Scheduler = NewMoveScheduler(g)
	return g
}

// Deferrals returns every move the scheduler postponed.
func (l *Loop) Deferrals() []Deferral { return append([]Deferral(nil), l.deferrals...) }

// AccessCount returns the total accesses observed by the loop.
func (l *Loop) AccessCount() int64 { return l.accessCount }

// Movements returns the layout-application history.
func (l *Loop) Movements() []MovementEvent {
	return append([]MovementEvent(nil), l.movements...)
}

// TrainLog returns every training report the loop produced.
func (l *Loop) TrainLog() []TrainReport {
	return append([]TrainReport(nil), l.trainLog...)
}

// SeedHeat preloads the per-file recency/frequency bookkeeping from
// accesses observed before the loop took over (the experiment harness's
// bootstrap phase records telemetry without a loop).
func (l *Loop) SeedHeat(lastAccess map[int64]float64, accesses map[int64]int64) {
	if l.lastAccess == nil {
		l.lastAccess = make(map[int64]float64, len(lastAccess))
	}
	if l.accesses == nil {
		l.accesses = make(map[int64]int64, len(accesses))
	}
	for id, t := range lastAccess {
		l.lastAccess[id] = t
	}
	for id, n := range accesses {
		l.accesses[id] = n
	}
}

// record stores telemetry from one access: through the Recorder (the
// distributed monitoring agents) when installed, directly into the
// ReplayDB otherwise.
func (l *Loop) record(res storagesim.AccessResult, wl, run int) error {
	l.accessCount++
	if l.lastAccess == nil {
		l.lastAccess = make(map[int64]float64)
		l.accesses = make(map[int64]int64)
	}
	l.lastAccess[res.FileID] = res.End
	l.accesses[res.FileID]++
	if l.metricsObs != nil {
		l.metricsObs(res, wl, run)
	}
	if l.Scheduler != nil && l.Scheduler.Gaps != nil {
		l.Scheduler.Gaps.Observe(res.FileID, res.Start)
	}
	if l.Recorder != nil {
		return l.Recorder(res, wl, run)
	}
	_, err := l.DB.AppendAccess(replaydb.AccessRecord{
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

// policyThroughputWindow is the per-device telemetry window the loop
// averages into the policy snapshot's device throughput — the recency
// window the paper's base cases read from the ReplayDB.
const policyThroughputWindow = 200

// policyState snapshots the system the way policies decide on it: mean
// device throughput over recent ReplayDB telemetry, free capacity and
// hardware class per device, and the working set with its current
// placement, recency, and access counts.
func (l *Loop) policyState() policy.State {
	var s policy.State
	for _, name := range l.Cluster.DeviceNames() {
		recent := l.DB.RecentByDevice(name, policyThroughputWindow)
		var tp float64
		if len(recent) > 0 {
			for i := range recent {
				tp += recent[i].Throughput
			}
			tp /= float64(len(recent))
		}
		dev := l.Cluster.Device(name)
		s.Devices = append(s.Devices, policy.DeviceInfo{
			Name:       name,
			Throughput: tp,
			Free:       dev.Free(),
			Class:      dev.Profile.Class,
		})
	}
	layout := l.Cluster.Layout()
	for _, f := range l.Workload.Files() {
		s.Files = append(s.Files, policy.FileInfo{
			ID:         f.ID,
			Path:       f.Path,
			Size:       f.Size,
			Device:     layout[f.ID],
			LastAccess: l.lastAccess[f.ID],
			Accesses:   l.accesses[f.ID],
		})
	}
	return s
}

// shouldDecide reports whether the cadence calls for a decision after
// the given workload run (runs are 0-based; the first decision happens
// after the first decideEvery runs).
func (l *Loop) shouldDecide(run int) bool {
	return l.decideEvery > 0 && (run+1)%l.decideEvery == 0
}

// Decide forces one decision cycle immediately, outside the automatic
// cadence — the experiment harness uses it for the initial placement at
// measurement start. The cycle is attributed to the last completed run.
func (l *Loop) Decide(ctx context.Context) error {
	if l.Policy == nil {
		return fmt.Errorf("core: loop has no policy")
	}
	return l.decideCycle(ctx, l.lastRun)
}

// decideCycle runs one full decision: snapshot the system, ask the
// policy, filter the proposal through the movement scheduler, apply it,
// and record the movements.
func (l *Loop) decideCycle(ctx context.Context, run int) error {
	layout, err := l.Policy.Propose(ctx, l.policyState())
	if l.model != nil {
		l.trainLog = append(l.trainLog, l.model.Reports()...)
	}
	if err != nil {
		return fmt.Errorf("core: proposing layout: %w", err)
	}
	if layout == nil {
		return nil
	}
	if l.Scheduler != nil {
		current := l.Cluster.Layout()
		sizes := make(map[int64]int64, len(l.Workload.Files()))
		for _, f := range l.Workload.Files() {
			sizes[f.ID] = f.Size
		}
		readBW := make(map[string]float64)
		writeBW := make(map[string]float64)
		for _, name := range l.Cluster.DeviceNames() {
			p := l.Cluster.Device(name).Profile
			readBW[name] = p.ReadBW
			writeBW[name] = p.WriteBW
		}
		est := ClusterMoveEstimator(sizes, current, readBW, writeBW)
		var deferred []Deferral
		layout, deferred = l.Scheduler.Filter(layout, current, est)
		l.deferrals = append(l.deferrals, deferred...)
		l.deferralsCtr.Add(uint64(len(deferred)))
	}
	moves, err := l.applyLayout(layout)
	if err != nil {
		return fmt.Errorf("core: applying layout: %w", err)
	}
	randomCount := 0
	if ex, ok := l.Policy.(policy.Explorer); ok {
		randomCount = ex.LastExplored()
	}
	l.movesCtr.Add(uint64(len(moves)))
	l.exploreCtr.Add(uint64(randomCount))
	for _, mv := range moves {
		l.movedBytes.Add(uint64(mv.Bytes))
		if _, err := l.DB.AppendMovement(replaydb.MovementRecord{
			Time:        mv.Start,
			FileID:      mv.FileID,
			From:        mv.From,
			To:          mv.To,
			Bytes:       mv.Bytes,
			Duration:    mv.Duration,
			AccessIndex: l.accessCount,
		}); err != nil {
			return fmt.Errorf("core: recording movement: %w", err)
		}
	}
	l.movements = append(l.movements, MovementEvent{
		AccessIndex: l.accessCount,
		Moved:       len(moves),
		Run:         run,
		Random:      randomCount,
	})
	return nil
}

// applyLayout re-homes files: through the control plane when a Pusher is
// installed (the movements materialize as cluster-layout changes made by
// the control agents' movers), via the Runner otherwise.
func (l *Loop) applyLayout(layout map[int64]string) ([]storagesim.MoveResult, error) {
	if l.Pusher == nil {
		return l.Workload.ApplyLayout(layout)
	}
	before := l.Cluster.Layout()
	if _, err := l.Pusher.PushLayout(layout); err != nil {
		return nil, err
	}
	// The agents applied the moves remotely; reconstruct the movement
	// records from the observable layout change.
	after := l.Cluster.Layout()
	var moves []storagesim.MoveResult
	for _, f := range l.Workload.Files() {
		if before[f.ID] != after[f.ID] {
			moves = append(moves, storagesim.MoveResult{
				FileID: f.ID,
				From:   before[f.ID],
				To:     after[f.ID],
				Bytes:  f.Size,
				Start:  l.Cluster.Now(),
			})
		}
	}
	return moves, nil
}

// RunOnce executes one workload run and, when the cadence allows, one
// full decide-and-move cycle. It returns the run statistics.
func (l *Loop) RunOnce() (workload.RunStats, error) {
	return l.RunOnceContext(context.Background())
}

// RunOnceContext is RunOnce with cancellation: ctx is checked between
// workload accesses, between training epochs, and between candidate-scoring
// batches. A cancelled cycle returns ctx.Err() (possibly wrapped) promptly
// without applying a partial layout.
func (l *Loop) RunOnceContext(ctx context.Context) (workload.RunStats, error) {
	var obsErr error
	stats, err := l.Workload.RunOnceContext(ctx, func(res storagesim.AccessResult, wl, run int) {
		if e := l.record(res, wl, run); e != nil && obsErr == nil {
			obsErr = e
		}
		if l.Observer != nil {
			l.Observer(res, wl, run)
		}
	})
	if err != nil {
		return stats, err
	}
	l.lastRun = stats.Run
	if obsErr != nil {
		// Telemetry could not reach the daemon. In fail-open mode the
		// monitors retain the unacked batch (replayed on the next flush),
		// so nothing is lost — skip this cycle's decision and keep
		// serving the last-known layout.
		if l.FailOpen && degradable(obsErr) {
			l.noteDegraded(stats.Run, obsErr)
			return stats, nil
		}
		return stats, fmt.Errorf("core: recording telemetry: %w", obsErr)
	}
	if l.Flusher != nil {
		if err := l.Flusher(); err != nil {
			if l.FailOpen && degradable(err) {
				l.noteDegraded(stats.Run, err)
				return stats, nil
			}
			return stats, fmt.Errorf("core: flushing telemetry: %w", err)
		}
	}
	if l.Policy == nil || !l.shouldDecide(stats.Run) {
		return stats, nil
	}
	if err := l.decideCycle(ctx, stats.Run); err != nil {
		if l.FailOpen && degradable(err) {
			l.noteDegraded(stats.Run, err)
			return stats, nil
		}
		return stats, err
	}
	return stats, nil
}
