package core

import (
	"bytes"
	"fmt"
	"sort"

	"geomancy/internal/features"
	"geomancy/internal/nn"
)

// EngineState is the serializable snapshot of a DRL engine: the decision
// stream, the trained model, fitted normalization, and the reward log —
// everything a restored engine needs to make the exact decisions the
// interrupted one would have. The engine's Config and store binding are
// reconstructed from configuration on restore.
type EngineState struct {
	RNG     uint64
	Net     []byte // nn wire format (architecture + weights)
	Devices []string

	FeatScaler   features.MinMaxState
	TargetScaler features.ScalarState
	ValMetrics   nn.Metrics
	Trained      bool

	Rewards []float64

	// Candidate-scoring bookkeeping: the decision counter anchors the
	// full-rescan cadence, the watermark anchors the dirty set, and the
	// score cache carries each file's per-device scores and generations,
	// so a restored run's decisions replay bit-for-bit. Every engine that
	// has decided carries them, TopK = 0 ones included (their cache holds
	// the last exhaustive pass, files×devices entries). Feature
	// ingredients are deliberately not captured — a restored engine
	// refetches them, deterministically, from the restored ReplayDB.
	DecisionCount uint64
	ModelGen      uint64
	LastWatermark uint64
	ScoreCache    []FileScoreState
}

// FileScoreState is one file's serialized score-cache entry.
type FileScoreState struct {
	FileID int64
	Size   int64
	Scores []float64
	Gens   []uint64
}

// State captures the engine mid-run.
func (e *Engine) State() (EngineState, error) {
	var buf bytes.Buffer
	if err := e.net.Save(&buf); err != nil {
		return EngineState{}, fmt.Errorf("core: serializing model: %w", err)
	}
	st := EngineState{
		RNG:           e.rng.State(),
		Net:           buf.Bytes(),
		Devices:       append([]string(nil), e.devices...),
		FeatScaler:    e.featScaler.State(),
		TargetScaler:  e.targetScaler.State(),
		ValMetrics:    e.valMetrics,
		Trained:       e.trained,
		Rewards:       append([]float64(nil), e.rewards...),
		DecisionCount: e.decisionCount,
		ModelGen:      e.modelGen,
		LastWatermark: e.lastWatermark,
	}
	for id, ent := range e.cache {
		st.ScoreCache = append(st.ScoreCache, FileScoreState{
			FileID: id,
			Size:   ent.size,
			Scores: append([]float64(nil), ent.scores...),
			Gens:   append([]uint64(nil), ent.gens...),
		})
	}
	sort.Slice(st.ScoreCache, func(i, j int) bool { return st.ScoreCache[i].FileID < st.ScoreCache[j].FileID })
	return st, nil
}

// RestoreState overwrites the engine with a previously captured snapshot.
// The RNG is rewound in place so aliases (the loop's Action Checker
// shares the stream) observe the restored state too.
func (e *Engine) RestoreState(st EngineState) error {
	net, err := nn.Load(bytes.NewReader(st.Net))
	if err != nil {
		return fmt.Errorf("core: restoring model: %w", err)
	}
	e.rng.SetState(st.RNG)
	e.net = net
	e.SetDevices(st.Devices)
	e.featScaler.RestoreState(st.FeatScaler)
	e.targetScaler.RestoreState(st.TargetScaler)
	e.valMetrics = st.ValMetrics
	e.trained = st.Trained
	e.rewards = append([]float64(nil), st.Rewards...)
	e.decisionCount = st.DecisionCount
	if st.ModelGen != 0 {
		// Snapshots predating the pruning plane carry no generation; keep
		// the fresh engine's counter (SetDevices above already bumped it).
		e.modelGen = st.ModelGen
	}
	e.lastWatermark = st.LastWatermark
	e.cache = make(map[int64]*fileCache, len(st.ScoreCache))
	for _, fs := range st.ScoreCache {
		e.cache[fs.FileID] = &fileCache{
			size:   fs.Size,
			scores: append([]float64(nil), fs.Scores...),
			gens:   append([]uint64(nil), fs.Gens...),
		}
	}
	return nil
}

// GapFileState is the serializable per-file estimate of a GapPredictor.
type GapFileState struct {
	FileID     int64
	LastAccess float64
	Mean       float64
	Dev        float64
	N          int64

	ReleaseMean float64
	ReleaseDev  float64
	Releases    int64
}

// GapPredictorState is the serializable snapshot of a GapPredictor.
type GapPredictorState struct {
	Alpha float64
	Files []GapFileState
}

// State captures the predictor's estimates, sorted by file ID for a
// deterministic wire form.
func (g *GapPredictor) State() GapPredictorState {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GapPredictorState{Alpha: g.Alpha}
	for id, s := range g.stats {
		st.Files = append(st.Files, GapFileState{
			FileID:      id,
			LastAccess:  s.lastAccess,
			Mean:        s.mean,
			Dev:         s.dev,
			N:           s.n,
			ReleaseMean: s.releaseMean,
			ReleaseDev:  s.releaseDev,
			Releases:    s.releases,
		})
	}
	sort.Slice(st.Files, func(i, j int) bool { return st.Files[i].FileID < st.Files[j].FileID })
	return st
}

// RestoreState overwrites the predictor with a previously captured
// snapshot.
func (g *GapPredictor) RestoreState(st GapPredictorState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.Alpha = st.Alpha
	g.stats = make(map[int64]*gapStats, len(st.Files))
	for _, f := range st.Files {
		g.stats[f.FileID] = &gapStats{
			lastAccess:  f.LastAccess,
			mean:        f.Mean,
			dev:         f.Dev,
			n:           f.N,
			releaseMean: f.ReleaseMean,
			releaseDev:  f.ReleaseDev,
			releases:    f.Releases,
		}
	}
}

// FileHeatState is the serializable per-file recency/frequency entry of
// the loop's policy snapshot bookkeeping.
type FileHeatState struct {
	FileID     int64
	LastAccess float64
	Accesses   int64
}

// LoopState is the serializable snapshot of a closed loop: decision-cycle
// counters and logs, the per-file heat bookkeeping policies decide from,
// plus the gap predictor when gap scheduling is enabled. The engine,
// policy, runner, cluster, and replay DB snapshot themselves; the loop
// state is what remains.
type LoopState struct {
	AccessCount int64
	LastRun     int
	Movements   []MovementEvent
	TrainLog    []TrainReport
	Deferrals   []Deferral
	Skipped     []SkippedDecision
	Heat        []FileHeatState
	Gaps        *GapPredictorState
	// Headroom is the move scheduler's configured safety factor. Zero
	// means the snapshot predates the field (or the loop has no
	// scheduler); RestoreState then keeps the scheduler's current value
	// rather than silently resetting admission headroom to zero.
	Headroom float64
}

// State captures the loop's counters and logs. Heat entries are sorted
// by file ID for a deterministic wire form.
func (l *Loop) State() LoopState {
	st := LoopState{
		AccessCount: l.accessCount,
		LastRun:     l.lastRun,
		Movements:   append([]MovementEvent(nil), l.movements...),
		TrainLog:    append([]TrainReport(nil), l.trainLog...),
		Deferrals:   append([]Deferral(nil), l.deferrals...),
		Skipped:     append([]SkippedDecision(nil), l.skipped...),
	}
	for id, t := range l.lastAccess {
		st.Heat = append(st.Heat, FileHeatState{FileID: id, LastAccess: t, Accesses: l.accesses[id]})
	}
	sort.Slice(st.Heat, func(i, j int) bool { return st.Heat[i].FileID < st.Heat[j].FileID })
	if l.Scheduler != nil {
		st.Headroom = l.Scheduler.Headroom
		if l.Scheduler.Gaps != nil {
			g := l.Scheduler.Gaps.State()
			st.Gaps = &g
		}
	}
	return st
}

// RestoreState overwrites the loop's counters and logs with a previously
// captured snapshot. A snapshot carrying gap-predictor state enables gap
// scheduling on the restored loop if it was not already enabled.
func (l *Loop) RestoreState(st LoopState) {
	l.accessCount = st.AccessCount
	l.lastRun = st.LastRun
	l.movements = append([]MovementEvent(nil), st.Movements...)
	l.trainLog = append([]TrainReport(nil), st.TrainLog...)
	l.deferrals = append([]Deferral(nil), st.Deferrals...)
	l.skipped = append([]SkippedDecision(nil), st.Skipped...)
	l.lastAccess = make(map[int64]float64, len(st.Heat))
	l.accesses = make(map[int64]int64, len(st.Heat))
	for _, h := range st.Heat {
		l.lastAccess[h.FileID] = h.LastAccess
		l.accesses[h.FileID] = h.Accesses
	}
	if st.Gaps != nil {
		if l.Scheduler == nil || l.Scheduler.Gaps == nil {
			l.EnableGapScheduling()
		}
		l.Scheduler.Gaps.RestoreState(*st.Gaps)
	}
	if l.Scheduler != nil && st.Headroom > 0 {
		l.Scheduler.Headroom = st.Headroom
	}
}
