package core

import (
	"context"
	"sort"

	"geomancy/internal/agents"
	"geomancy/internal/mat"
	"geomancy/internal/nn"
)

// Every decision — exhaustive or pruned, single-engine or sharded — runs
// one pipeline, split into three stages so a sharded coordinator can
// interleave many engines' decisions around ONE batched inference per
// cycle (ROADMAP item 2's amortized inference):
//
//	prepare — dirty tracking, shortlist/task construction, and candidate
//	          row assembly into the engine's input buffer. Draws no
//	          randomness and runs no GEMM, so shards prepare concurrently.
//	forward — one nn.ForwardBatch over the assembled rows. A single
//	          engine (ProposeLayoutContext) forwards its own rows; the
//	          coordinator concatenates every shard's rows and forwards
//	          once.
//	finish  — denormalization, cache writeback, and the serial ε-greedy
//	          selection (the only stage that draws from e.rng).
//
// An exhaustive decision is the degenerate pruned one (see prune.go):
// every cache entry invalidated, every device shortlisted. Every score is
// bit-identical to what predictCandidate computes for the same pairing:
// batching and row-sharded GEMMs do not change any output row's
// arithmetic order.

// pendingDecision is a prepared-but-not-yet-scored decision: the task
// list mapping batch rows to (file, device) pairings, plus the assembled
// input rows in the owning engine's reusable buffers. The buffers are
// valid until the engine's next prepare.
type pendingDecision struct {
	eng     *Engine
	files   []FileMeta
	checker *agents.ActionChecker
	valid   agents.Validator

	// entries holds each file's cache entry, tasks the rows to score,
	// total the row count.
	entries []*fileCache
	tasks   []scoreTask
	total   int

	// Assembled input: flat for dense models, seq for recurrent ones.
	// Aliases of the engine's reusable buffers.
	flat *mat.Matrix
	seq  []*mat.Matrix
}

// prepareProposal runs the decision pipeline up to (but excluding) the
// batched inference: dirty-set maintenance, task-list construction, and
// candidate-row assembly. An exhaustive decision (TopK == 0, the first
// decision, every FullRescanEvery-th one) is the degenerate pruned one:
// every cache entry is invalidated and every device shortlisted. It
// advances the decision counter and watermark, so every prepare must be
// followed by exactly one finish.
func (e *Engine) prepareProposal(ctx context.Context, files []FileMeta, checker *agents.ActionChecker, valid agents.Validator) (*pendingDecision, error) {
	if !e.trained {
		return nil, ErrNotTrained
	}
	if checker == nil {
		checker = agents.NewActionChecker(e.rng, e.devices)
	}
	exhaustive := e.cfg.TopK == 0 || e.fullRescanDue()
	e.decisionCount++

	// Dirty set: drop caches of files whose telemetry moved past the last
	// scoring watermark. Without a ChangeTracker nothing can be trusted
	// across decisions; the shortlist still prunes the device axis.
	switch {
	case exhaustive:
		// Rebuilt from this file list, so entries of files that left the
		// working set drop out: full rescans bound both pruning error and
		// cache growth.
		next := make(map[int64]*fileCache, len(files))
		for _, f := range files {
			ent := e.ensureCache(f)
			ent.invalidate()
			next[f.ID] = ent
		}
		e.cache = next
	case e.tracker != nil:
		for _, id := range e.tracker.FilesChangedSince(e.lastWatermark) {
			if ent, ok := e.cache[id]; ok {
				ent.invalidate()
			}
		}
	default:
		for _, ent := range e.cache {
			ent.invalidate()
		}
	}
	if e.tracker != nil {
		e.lastWatermark = e.tracker.Watermark()
	}
	var short []int
	if exhaustive {
		short = e.allDevices()
	} else {
		short = e.deviceShortlist()
	}

	pd := &pendingDecision{eng: e, files: files, checker: checker, valid: valid}
	pd.entries, pd.tasks, pd.total = e.pruneTasks(files, short)
	if pd.total > 0 {
		var err error
		pd.flat, pd.seq, err = e.assembleTasks(ctx, files, pd.tasks, pd.total)
		if err != nil {
			return nil, err
		}
	}
	return pd, nil
}

// rows returns the number of candidate rows awaiting inference.
func (pd *pendingDecision) rows() int { return pd.total }

// fillInto copies the assembled candidate rows into dst starting at row
// base — the coordinator's concatenation step. Dense models only; the
// coordinator rejects recurrent architectures at construction.
func (pd *pendingDecision) fillInto(dst *mat.Matrix, base int) {
	if pd.total == 0 {
		return
	}
	cols := pd.flat.Cols
	copy(dst.Data[base*cols:(base+pd.total)*cols], pd.flat.Data[:pd.total*cols])
}

// finish consumes the inference output rows [base, base+total) of out and
// completes the decision: denormalization, cache writeback under the
// current model generation, candidate filtering, and the serial ε-greedy
// selection. out may be nil when rows() was 0.
func (pd *pendingDecision) finish(ctx context.Context, out *mat.Matrix, base int) (map[int64]string, []Decision, error) {
	e := pd.eng
	files := pd.files
	err := parallelFor(ctx, len(pd.tasks), e.cfg.Parallelism, func(ti int) {
		t := pd.tasks[ti]
		for k, j := range t.devs {
			raw := DecodeTarget(e.targetScaler.Inverse(clamp01(out.At(base+t.base+k, 0))))
			t.ent.scores[j] = nn.AdjustPrediction(raw, e.valMetrics)
			t.ent.gens[j] = e.modelGen
		}
	})
	if err != nil {
		return nil, nil, err
	}

	// Prepared decision material: candidates are every device scored
	// under the current generation — the full width after an exhaustive
	// pass and for clean files still carrying one, the shortlist for
	// freshly scored ones.
	pre := make([]scored, len(files))
	err = parallelFor(ctx, len(files), e.cfg.Parallelism, func(i int) {
		f := files[i]
		ent := pd.entries[i]
		d := Decision{FileID: f.ID, Current: f.Device, Predictions: make(map[string]float64)}
		cands := make([]agents.Candidate, 0, len(e.devices))
		for j, dev := range e.devices {
			if ent.gens[j] != e.modelGen {
				continue
			}
			p := ent.scores[j]
			d.Predictions[dev] = p
			// Candidate scores are maximize-me: latency negates.
			cands = append(cands, agents.Candidate{Device: dev, Predicted: e.betterScore(p)})
		}
		pre[i] = scored{d: d, passing: pd.checker.Filter(cands, f.Size, pd.valid)}
	})
	if err != nil {
		return nil, nil, err
	}
	return e.selectLayout(files, pre, pd.checker, pd.valid)
}

// pruneTasks builds the decision's work list: per file, the shortlist ∪
// {current device} entries not yet scored under the current model
// generation. A file listed twice shares one cache entry and gets one
// task, so no two tasks write the same entry.
func (e *Engine) pruneTasks(files []FileMeta, short []int) (entries []*fileCache, tasks []scoreTask, total int) {
	entries = make([]*fileCache, len(files))
	tasks = make([]scoreTask, 0, len(files))
	for i, f := range files {
		ent := e.ensureCache(f)
		entries[i] = ent
		if ent.sched == e.decisionCount {
			continue
		}
		ent.sched = e.decisionCount
		var need []int
		cur, curOK := e.devIndex[f.Device]
		curListed := false
		for _, j := range short {
			if curOK && j == cur {
				curListed = true
			}
			if ent.gens[j] != e.modelGen {
				if need == nil {
					need = make([]int, 0, len(short)+1) // room for the current device
				}
				need = append(need, j)
			}
		}
		if curOK && !curListed && ent.gens[cur] != e.modelGen {
			pos := sort.SearchInts(need, cur)
			need = append(need, 0)
			copy(need[pos+1:], need[pos:])
			need[pos] = cur
		}
		if len(need) > 0 {
			tasks = append(tasks, scoreTask{file: i, ent: ent, devs: need, base: total})
			total += len(need)
		}
	}
	return entries, tasks, total
}

// assembleTasks builds the candidate feature rows for every task into the
// engine's reusable input buffers, reusing (and filling) each task's cache
// entry's raw feature ingredients. Nothing here consumes e.rng, and tasks
// touch disjoint rows and cache entries, so the fan-out is race-free.
func (e *Engine) assembleTasks(ctx context.Context, files []FileMeta, tasks []scoreTask, total int) (*mat.Matrix, []*mat.Matrix, error) {
	cols := e.net.InSize
	recurrent := e.net.IsRecurrent()
	var flat *mat.Matrix
	var seq []*mat.Matrix
	w := 1
	if recurrent {
		w = e.net.Window
		seq = e.seqBufs(w, total, cols)
	} else {
		flat = e.flatBuf(total, cols)
	}
	err := parallelFor(ctx, len(tasks), e.cfg.Parallelism, func(ti int) {
		t := tasks[ti]
		f := files[t.file]
		// Candidate feature row ingredients: the file's typical access,
		// stamped at the most recent known time.
		if !t.ent.featValid {
			t.ent.feat = e.gatherFileFeatures(f, recurrent)
			t.ent.featValid = true
		}
		ff := t.ent.feat
		// History rows (normalized) are shared by every device pairing of
		// this file; only the candidate row itself differs per device.
		var hist [][]float64
		if recurrent {
			hist = make([][]float64, len(ff.hist))
			for k, raw := range ff.hist {
				nrm := make([]float64, len(raw))
				for c, v := range raw {
					nrm[c] = e.featScaler.TransformValue(c, v)
				}
				hist[k] = nrm
			}
		}
		for k, j := range t.devs {
			norm := e.candidateRow(ff, f.ID, j)
			r := t.base + k
			if !recurrent {
				flat.SetRow(r, norm)
				continue
			}
			// The window is the file's history padded by repeating the
			// candidate row, then the candidate row last — the batched form
			// of predictCandidate's prepend-and-slice.
			need := w - 1
			for x := 0; x < need; x++ {
				if h := len(hist) - need + x; h >= 0 {
					seq[x].SetRow(r, hist[h])
				} else {
					seq[x].SetRow(r, norm)
				}
			}
			seq[need].SetRow(r, norm)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return flat, seq, nil
}
