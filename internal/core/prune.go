package core

import (
	"sort"

	"geomancy/internal/storagesim"
)

// Candidate pruning (Config.TopK > 0) makes the scoring hot path sublinear
// in the candidate space. An exhaustive pass builds and scores all
// files×devices rows; at warehouse scale (ROADMAP item 2) almost all of
// that work re-derives scores that cannot have changed. Every engine keeps
// a per-file cache of candidate scores tagged with the model generation
// that produced them, and a pruned decision scores only:
//
//   - files whose telemetry changed since the last pass — the dirty set,
//     answered by the ReplayDB's append watermark (ChangeTracker) instead
//     of re-reading every file's history;
//   - against a device shortlist — the top-K devices per device class by
//     recent effective throughput (storagesim.DeviceSummary), always
//     including the file's current device;
//   - plus anything the current model generation has not scored yet: a
//     retrain or incremental update bumps the generation, so fresh weights
//     never reuse stale scores.
//
// Exactness contract: an exhaustive pass is a pruned pass with every cache
// entry invalidated and an all-device shortlist, so both run one code path
// (prepareProposal → pruneTasks → finish). Every decision with TopK == 0,
// the first decision, and every FullRescanEvery-th one is exhaustive, so
// pruning error cannot accumulate past one cadence window. Between
// rescans, a clean file whose cache still carries the full device width at
// the current generation decides over exactly the exhaustive candidate
// set, bit-identically (batching never changes a row's arithmetic); dirty
// or newly generated files decide over the shortlist ∪ {current device}.
// Exploration shuffles always span the full device list in profile order
// (see selectLayout), so a pruned run and an exhaustive run of the same
// seed consume identical randomness, and agree on the chosen layout
// whenever the shortlist covers the argmax device.

// ChangeTracker is the optional dirty-tracking view of a TelemetryStore.
// The local *replaydb.DB implements it; a store that does not (e.g. a
// remote daemon without the extension) degrades the pruned path to
// treating every file as changed on every decision — still O(files×K).
type ChangeTracker interface {
	// Watermark returns the sequence number of the newest record.
	Watermark() uint64
	// FilesChangedSince returns IDs of files with access records appended
	// after seq, sorted ascending.
	FilesChangedSince(seq uint64) []int64
	// FileLastSeq returns the sequence number of the file's newest access
	// record, 0 if none.
	FileLastSeq(fileID int64) uint64
}

// SummarySource supplies the per-device recent-throughput digests the
// shortlist ranks; typically storagesim.(*Cluster).DeviceSummaries.
type SummarySource func() []storagesim.DeviceSummary

// SetSummarySource installs the device-summary provider the pruned path
// builds shortlists from. Without one, pruning still skips clean files
// but shortlists every device.
func (e *Engine) SetSummarySource(src SummarySource) { e.summarySource = src }

// fileCache is one file's pruning state: raw feature ingredients (valid
// until the file's telemetry changes) and per-device candidate scores
// tagged with the model generation that produced them. gens[j] == 0 means
// never scored; entries are laid out in e.devices index order.
type fileCache struct {
	size      int64
	featValid bool         //geomancy:ephemeral feature-cache validity bit, recomputed from telemetry after restore
	feat      fileFeatures //geomancy:ephemeral raw feature ingredients, recomputed from telemetry after restore
	scores    []float64
	gens      []uint64
	sched     uint64 //geomancy:ephemeral number of the decision that last gave the entry a scoring task, meaningless across decisions
}

// invalidate drops everything derived from the file's telemetry.
func (fc *fileCache) invalidate() {
	fc.featValid = false
	for i := range fc.gens {
		fc.gens[i] = 0
	}
}

// ensureCache returns the file's cache entry, creating or resetting it if
// the device width or the file's size changed.
func (e *Engine) ensureCache(f FileMeta) *fileCache {
	ent, ok := e.cache[f.ID]
	if !ok || len(ent.gens) != len(e.devices) {
		ent = &fileCache{
			size:   f.Size,
			scores: make([]float64, len(e.devices)),
			gens:   make([]uint64, len(e.devices)),
		}
		e.cache[f.ID] = ent
	} else if ent.size != f.Size {
		ent.size = f.Size
		ent.invalidate()
	}
	return ent
}

// fullRescanDue reports whether the next pruned-mode decision must run the
// exhaustive pass: always the first, then every FullRescanEvery-th.
func (e *Engine) fullRescanDue() bool {
	if e.decisionCount == 0 {
		return true
	}
	return e.cfg.FullRescanEvery > 0 && e.decisionCount%uint64(e.cfg.FullRescanEvery) == 0
}

// allDevices returns every device index in ascending order: the
// shortlist of an exhaustive pass.
func (e *Engine) allDevices() []int {
	out := make([]int, len(e.devices))
	for i := range out {
		out[i] = i
	}
	return out
}

// deviceShortlist returns the sorted device indices a pruned decision
// scores dirty files against: the top-K devices per device class by
// recent effective throughput, skipping devices no move could target
// (unavailable or read-only). Devices whose summary carries only the
// nominal-bandwidth fallback (DeviceSummary.Nominal — never probed by any
// access) are always shortlisted regardless of rank: their fallback
// throughput is a spec-sheet guess, and a device whose guess ranks below
// its classmates' measured rates would otherwise never be probed until
// the next full rescan. Ties break toward profile order, and the result
// is ascending by device index, so shortlists are deterministic — in
// particular, a shortlist built from restored summaries equals the one
// the original run built.
// Without a summary source every device is shortlisted.
func (e *Engine) deviceShortlist() []int {
	if e.summarySource == nil {
		return e.allDevices()
	}
	type ranked struct {
		idx int
		tp  float64
	}
	byClass := make(map[string][]ranked)
	var classes []string
	var nominal []int
	for _, s := range e.summarySource() {
		j, ok := e.devIndex[s.Name]
		if !ok || !s.Available || s.ReadOnly {
			continue
		}
		if s.Nominal {
			nominal = append(nominal, j)
		}
		if _, seen := byClass[s.Class]; !seen {
			classes = append(classes, s.Class)
		}
		byClass[s.Class] = append(byClass[s.Class], ranked{j, s.RecentThroughput})
	}
	var out []int
	for _, cls := range classes {
		rs := byClass[cls]
		sort.SliceStable(rs, func(a, b int) bool { return rs[a].tp > rs[b].tp })
		n := e.cfg.TopK
		if n > len(rs) {
			n = len(rs)
		}
		for _, r := range rs[:n] {
			out = append(out, r.idx)
		}
	}
	out = append(out, nominal...)
	sort.Ints(out)
	// Nominal devices may double up with top-K winners; dedupe in place.
	dst := 0
	for i, v := range out {
		if i == 0 || v != out[dst-1] {
			out[dst] = v
			dst++
		}
	}
	return out[:dst]
}

// scoreTask is one file's pending inference work: the device indices to
// score (ascending) and where its rows start in the batch. The decision
// body itself lives in propose.go (prepareProposal builds the task list
// via pruneTasks; pendingDecision.finish writes scores back), shared with
// the sharded coordinator.
type scoreTask struct {
	file int
	ent  *fileCache
	devs []int
	base int
}
