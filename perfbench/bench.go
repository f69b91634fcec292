package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"geomancy"
	"geomancy/internal/telemetry"
)

// options are one benchmark invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool      // shrink every size (smoke tests only)
	dir      string    // scratch directory for logs and checkpoints
	log      io.Writer // human-readable progress and metric lines
}

// metric is one reported number with the count of samples behind it.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// result is what one invocation reports.
type result struct {
	attempted, failed int
	metrics           []metric
	spans             *Recorder
}

// systemState is the observable state the resume property compares.
type systemState struct {
	layout    map[int64]string
	telemetry int
	stats     []geomancy.RunStats
}

func capture(sys *geomancy.System) systemState {
	return systemState{layout: sys.Layout(), telemetry: sys.Telemetry(), stats: sys.Stats()}
}

// bench drives one workload: repeated set-ups, then fixed-work episodes
// that each restore the post-set-up checkpoint and run the same decision
// cycles, until the time budget is spent.
type bench struct {
	opt     options
	cfg     config
	p       probe
	ckpt    string // post-set-up checkpoint
	walSrc  string // post-set-up WAL, copied for every restore
	want    systemState
	firstRn int // run index after set-up
	cands   int // candidate (file, device) pairs per exhaustive cycle

	attempted, failed int
	digest            string  // layout after the first complete episode
	gbps              float64 // mean simulated throughput of that episode
	gbpsAccesses      int

	// untraced samples (end-to-end metrics)
	setupS, ingestMS, decideMS, restoreMS []float64
	runs                                  int
	runWall                               time.Duration
	heapPeak                              uint64 // first complete untraced episode
	heapSamples                           int

	// traced samples (per-layer metrics)
	tracedRuns                       int
	tracedWall                       time.Duration
	decideSpans                      []int
	trainMS, inferMS, trainSamples   []float64
	allocMB, mallocs, ckptBytes      []float64
	counts                           map[string]float64 // first complete traced episode
	countCycles, countRuns, accesses int
}

// benchmark runs one workload to completion and returns its metrics.
func benchmark(opt options) (*result, error) {
	cfg, err := workloadConfig(opt.workload, opt.seed, opt.tiny)
	if err != nil {
		return nil, err
	}
	b := &bench{opt: opt, cfg: cfg, p: probe{parent: -1, scenario: -1, apply: -1}}
	replay := "memory"
	if cfg.wal {
		replay = "wal (facade flush policy: SyncEvery 0)"
	}
	b.logf("perfbench workload=%s seed=%d seconds=%g trace=%v scenario=%s replaydb=%s parallelism=%d epochs=%d window=%d cooldown=%d shards=%d topk=%d distributed=%v episode_cycles=%d",
		opt.workload, opt.seed, opt.seconds, opt.trace, cfg.scenario, replay, parallelism, cfg.epochs, cfg.window, cfg.cooldown, cfg.shards, cfg.topK, cfg.distributed, cfg.cycles)

	reps := 9
	if opt.trace {
		reps = 1
	}
	if err := b.setup(reps); err != nil {
		return nil, err
	}
	if opt.trace {
		b.p.rec = NewRecorder()
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	var doneTraced, doneUntraced bool
	for ep := 0; ; ep++ {
		traced := opt.trace && ep%2 == 0
		finish := (traced && !doneTraced) || (!traced && !doneUntraced)
		if !finish && !time.Now().Before(deadline) {
			break
		}
		complete, err := b.episode(traced, deadline, finish)
		if err != nil {
			b.logf("episode %d aborted: %v", ep, err)
			break
		}
		if complete && traced {
			doneTraced = true
		} else if complete {
			doneUntraced = true
		}
		if doneUntraced && (doneTraced || !opt.trace) && !time.Now().Before(deadline) {
			break
		}
	}
	res := &result{spans: b.p.rec}
	if opt.trace {
		res.metrics = b.layerMetrics()
	} else {
		res.metrics = b.endToEndMetrics()
	}
	res.attempted, res.failed = b.attempted, b.failed
	b.logf("layout_digest %s gbps_mean %.9g GB/s over %d accesses (first complete episode)", b.digest, b.gbps, b.gbpsAccesses)
	b.logf("fail_ratio %g (%d failed of %d attempted ops)", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	return res, nil
}

func (b *bench) logf(format string, args ...any) {
	if b.opt.log != nil {
		fmt.Fprintf(b.opt.log, format+"\n", args...)
	}
}

// op counts one attempted operation and reports whether it succeeded.
func (b *bench) op(err error, what string) bool {
	b.attempted++
	if err != nil {
		b.failed++
		b.logf("FAIL %s: %v", what, err)
		return false
	}
	return true
}

// check counts one correctness check.
func (b *bench) check(ok bool, format string, args ...any) bool {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	return b.op(err, "check")
}

func (b *bench) walPath(name string) string {
	if !b.cfg.wal {
		return ""
	}
	return filepath.Join(b.opt.dir, name)
}

// setup builds the system and runs it until the training window is full,
// reps times, timing each; the last one is checkpointed as every
// episode's starting point.
func (b *bench) setup(reps int) error {
	for i := 0; i < reps; i++ {
		wal := b.walPath(fmt.Sprintf("setup%d.wal", i))
		start := time.Now()
		sys, err := geomancy.New(b.cfg.options(b.opt.seed, wal, nil, &b.p)...)
		if !b.op(err, "new") {
			return err
		}
		warm := b.cfg.warmupRuns()
		for r := 0; r < warm; r++ {
			if _, err := sys.Run(); !b.op(err, "warm-up run") {
				sys.Close()
				return err
			}
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		b.check(len(sys.Skipped()) == 0, "set-up skipped %d decisions", len(sys.Skipped()))
		if i < reps-1 {
			if err := sys.Close(); err != nil {
				return err
			}
			os.Remove(wal)
			continue
		}
		b.ckpt = filepath.Join(b.opt.dir, "setup.ckpt")
		err = sys.Checkpoint(b.ckpt)
		b.want = capture(sys)
		b.firstRn = len(b.want.stats)
		b.walSrc = wal
		b.cands = len(b.want.layout) * b.cfg.candidateWidth(len(sys.Devices()))
		if cerr := sys.Close(); err == nil {
			err = cerr
		}
		if !b.op(err, "set-up checkpoint") {
			return err
		}
		b.logf("setup runs=%d telemetry=%d files=%d devices=%d", warm, b.want.telemetry, len(b.want.layout), len(sys.Devices()))
	}
	return nil
}

// restore rebuilds the system from the post-set-up checkpoint (onto a
// fresh copy of its WAL) and checks it resumes the checkpointed state.
func (b *bench) restore(i int, reg *geomancy.Metrics) (*geomancy.System, string, error) {
	wal := b.walPath(fmt.Sprintf("episode%d.wal", i))
	if wal != "" {
		if err := copyFile(b.walSrc, wal); err != nil {
			return nil, "", err
		}
	}
	id := b.p.rec.Begin("checkpoint.restore", -1, -1)
	start := time.Now()
	sys, err := geomancy.Restore(b.ckpt, b.cfg.options(b.opt.seed, wal, reg, &b.p)...)
	d := time.Since(start)
	b.p.rec.End(id)
	if !b.op(err, "restore") {
		return nil, wal, err
	}
	if b.p.rec == nil {
		b.restoreMS = append(b.restoreMS, ms(d))
	}
	got := capture(sys)
	b.check(reflect.DeepEqual(got.layout, b.want.layout), "restored layout differs from the checkpointed one")
	b.check(got.telemetry == b.want.telemetry, "restored telemetry %d, checkpointed %d", got.telemetry, b.want.telemetry)
	b.check(reflect.DeepEqual(got.stats, b.want.stats), "restored run stats differ from the checkpointed ones")
	return sys, wal, nil
}

// episode restores the set-up checkpoint cfg.restores times (timing each,
// keeping the last) and runs cfg.cycles decision cycles on it. Unless
// finish is set it stops at the first run boundary past deadline; it
// reports whether every cycle ran.
func (b *bench) episode(traced bool, deadline time.Time, finish bool) (bool, error) {
	rec := b.p.rec
	if !traced {
		b.p.rec = nil
		defer func() { b.p.rec = rec }()
	}
	var reg *geomancy.Metrics
	if traced {
		reg = geomancy.NewMetrics()
	}
	var sys *geomancy.System
	var wal string
	release := func() {
		if sys != nil {
			sys.Close()
		}
		if wal != "" {
			os.Remove(wal)
		}
	}
	defer func() { release() }()
	for i := 0; i < b.cfg.restores; i++ {
		release()
		var err error
		if sys, wal, err = b.restore(i, reg); err != nil {
			return false, err
		}
	}
	var tr *layerProbe
	if traced {
		tr = newLayerProbe(reg)
	}
	var tpSum float64
	var accesses int
	var heap uint64
	total := b.cfg.cycles * b.cfg.cooldown
	next := b.firstRn
	for r := 0; r < total; r, next = r+1, next+1 {
		if !finish && !time.Now().Before(deadline) {
			return false, nil
		}
		decide := (next+1)%b.cfg.cooldown == 0
		skipped := len(sys.Skipped())
		if tr != nil && decide {
			tr.beforeDecide()
		}
		b.p.scenario, b.p.apply = -1, -1
		b.p.run = b.tracedRuns
		rid := b.p.rec.Begin("run", -1, b.p.run)
		b.p.parent = rid
		start := time.Now()
		st, err := sys.Run()
		d := time.Since(start)
		b.p.rec.End(rid)
		if err == nil && st.Run != next {
			err = fmt.Errorf("run index %d, expected %d", st.Run, next)
		}
		if !b.op(err, "run") {
			return false, err
		}
		tpSum += st.MeanThroughput * float64(st.Accesses)
		accesses += st.Accesses
		if traced {
			b.tracedRuns++
			b.tracedWall += d
		} else {
			b.runs++
			b.runWall += d
			if decide {
				b.decideMS = append(b.decideMS, ms(d))
			} else {
				b.ingestMS = append(b.ingestMS, ms(d))
			}
		}
		if decide {
			b.check(len(sys.Skipped()) == skipped, "decision cycle after run %d was skipped", st.Run)
			if tr != nil {
				b.decideSpans = append(b.decideSpans, rid)
				tr.afterDecide(b, rid)
			}
			if err := b.save(sys); err != nil {
				return false, err
			}
		}
		heap = max(heap, heapInuse())
	}
	b.endChecks(sys)
	digest := layoutDigest(sys.Layout())
	if b.digest == "" {
		b.digest = digest
	} else {
		b.check(digest == b.digest, "episode ended on layout %s, an earlier identical episode on %s", digest, b.digest)
	}
	if b.gbpsAccesses == 0 {
		b.gbps, b.gbpsAccesses = tpSum/float64(accesses)/1e9, accesses
	}
	if !traced && b.heapSamples == 0 {
		b.heapPeak, b.heapSamples = heap, total
	}
	if traced && b.counts == nil {
		b.counts = tr.delta()
		b.countCycles, b.countRuns, b.accesses = b.cfg.cycles, total, accesses
	}
	return true, nil
}

// save checkpoints the running system after a decision cycle.
func (b *bench) save(sys *geomancy.System) error {
	path := filepath.Join(b.opt.dir, "cycle.ckpt")
	id := b.p.rec.Begin("checkpoint.save", -1, b.p.run)
	err := sys.Checkpoint(path)
	b.p.rec.End(id)
	if !b.op(err, "checkpoint") {
		return err
	}
	if fi, err := os.Stat(path); err == nil {
		b.ckptBytes = append(b.ckptBytes, float64(fi.Size()))
	}
	return nil
}

// endChecks verifies the episode's final state: every file on a known
// device, and one ReplayDB record per access the runs reported (none lost
// or duplicated on the way, over RPC included).
func (b *bench) endChecks(sys *geomancy.System) {
	devs := make(map[string]bool)
	for _, d := range sys.Devices() {
		devs[d] = true
	}
	bad := 0
	for _, d := range sys.Layout() {
		if !devs[d] {
			bad++
		}
	}
	b.check(bad == 0, "%d files placed on unknown devices", bad)
	sum := 0
	for _, st := range sys.Stats() {
		sum += st.Accesses
	}
	b.check(sys.Telemetry() == sum, "telemetry holds %d records, runs reported %d accesses", sys.Telemetry(), sum)
}

func heapInuse() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// endToEndMetrics assembles the untraced run's metrics.
func (b *bench) endToEndMetrics() []metric {
	return []metric{
		{"setup_s", percentile(b.setupS, 50), "s", len(b.setupS)},
		{"runs_per_s", ratio(float64(b.runs), b.runWall.Seconds()), "1/s", b.runs},
		{"ingest_run_ms_p50", percentile(b.ingestMS, 50), "ms", len(b.ingestMS)},
		{"decide_run_ms_p50", percentile(b.decideMS, 50), "ms", len(b.decideMS)},
		{"decide_run_ms_p75", percentile(b.decideMS, 75), "ms", len(b.decideMS)},
		{"restore_ms_p50", percentile(b.restoreMS, 50), "ms", len(b.restoreMS)},
		{"heap_peak_mb", float64(b.heapPeak) / (1 << 20), "MB", b.heapSamples},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// layoutDigest hashes a layout in file-ID order.
func layoutDigest(layout map[int64]string) string {
	ids := make([]int64, 0, len(layout))
	for id := range layout {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%d=%s\n", id, layout[id])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// registryTotals flattens a registry snapshot: counters and gauges summed
// across labels under their name, histograms as name:sum and name:count,
// with the daemon's per-type RPC histograms kept apart as name{type}.
func registryTotals(reg *geomancy.Metrics) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range reg.Snapshot() {
		key := s.Name
		if t := s.Labels["type"]; t != "" {
			key += "{" + t + "}"
		}
		if s.Value != nil {
			out[key] += *s.Value
		}
		if s.Histogram != nil {
			out[key+":sum"] += s.Histogram.Sum
			out[key+":count"] += float64(s.Histogram.Count)
		}
	}
	return out
}

// layerProbe reads the program's telemetry registry around the decision
// runs of a traced episode.
type layerProbe struct {
	reg        *geomancy.Metrics
	start      map[string]float64
	train      *telemetry.Histogram
	batch      *telemetry.Histogram
	infer      *telemetry.Gauge
	samples    *telemetry.Gauge
	trainSum   float64
	batchCount uint64
	mem        runtime.MemStats
}

func newLayerProbe(reg *geomancy.Metrics) *layerProbe {
	return &layerProbe{
		reg:     reg,
		start:   registryTotals(reg),
		train:   reg.Histogram(telemetry.MetricTrainingDurationHist, telemetry.DefDurationBuckets),
		batch:   reg.Histogram(telemetry.MetricInferenceBatchSize, telemetry.DefBatchSizeBuckets),
		infer:   reg.Gauge(telemetry.MetricInferenceDuration),
		samples: reg.Gauge(telemetry.MetricTrainingSamples),
	}
}

func (t *layerProbe) beforeDecide() {
	t.trainSum, t.batchCount = t.train.Sum(), t.batch.Count()
	runtime.ReadMemStats(&t.mem)
}

// afterDecide records the decision run's training, inference and
// allocation deltas, and places the training and inference durations the
// registry reports as child spans of the run: inference ending where the
// layout apply starts (or the run ends), training just before it, both
// after the workload run.
func (t *layerProbe) afterDecide(b *bench, rid int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.allocMB = append(b.allocMB, float64(m.TotalAlloc-t.mem.TotalAlloc)/(1<<20))
	b.mallocs = append(b.mallocs, float64(m.Mallocs-t.mem.Mallocs))
	train := time.Duration((t.train.Sum() - t.trainSum) * 1e9)
	var infer time.Duration
	if t.batch.Count() > t.batchCount {
		infer = time.Duration(t.infer.Value() * 1e9)
	}
	b.trainMS = append(b.trainMS, ms(train))
	b.inferMS = append(b.inferMS, ms(infer))
	b.trainSamples = append(b.trainSamples, t.samples.Value())

	rec := b.p.rec
	run := rec.Get(rid)
	floor := run.Start
	if b.p.scenario >= 0 {
		floor = rec.Get(b.p.scenario).End
	}
	anchor := run.End
	if b.p.apply >= 0 {
		anchor = rec.Get(b.p.apply).Start
	}
	inferStart := max(anchor-infer, floor)
	rec.Add("core.infer", rid, run.Run, inferStart, anchor)
	rec.Add("nn.train", rid, run.Run, max(inferStart-train, floor), inferStart)
}

// delta returns the registry's change since the probe was created.
func (t *layerProbe) delta() map[string]float64 {
	out := registryTotals(t.reg)
	for k, v := range t.start {
		out[k] -= v
	}
	return out
}
