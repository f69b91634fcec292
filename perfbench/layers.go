package main

import (
	"time"

	"geomancy/internal/agents"
	"geomancy/internal/telemetry"
)

// layerMetrics assembles the traced run's per-layer metrics. Timings come
// from the spans of every traced episode; counts and busy times come from
// the registry's change over the first complete traced episode, whose
// work is fixed, so counts repeat exactly for a seed.
func (b *bench) layerMetrics() []metric {
	spans := b.p.rec.Spans()
	kids := children(spans)
	var scenSelf, recordUS, applyMS, saveMS, restoreMS []float64
	for _, s := range spans {
		switch s.Name {
		case "scenario.run":
			scenSelf = append(scenSelf, ms(selfTime(s, kids[s.ID])))
		case "replaydb.record":
			recordUS = append(recordUS, float64(s.Duration().Nanoseconds())/1e3)
		case "storagesim.apply":
			applyMS = append(applyMS, ms(s.Duration()))
		case "checkpoint.save":
			saveMS = append(saveMS, ms(s.Duration()))
		case "checkpoint.restore":
			restoreMS = append(restoreMS, ms(s.Duration()))
		}
	}

	// Decision runs: self time is the run span minus the workload, the
	// layout apply and the training and inference the registry reports.
	// The accounting check confirms those children, at their reported
	// lengths, fit inside the run without overlapping.
	var selfMS []float64
	var decideTotal, trainTotal float64
	worst := time.Duration(0)
	for i, rid := range b.decideSpans {
		run := spans[rid]
		self := selfTime(run, kids[rid])
		selfMS = append(selfMS, ms(self))
		decideTotal += ms(run.Duration())
		trainTotal += b.trainMS[i]
		sum := self + time.Duration((b.trainMS[i]+b.inferMS[i])*1e6)
		for _, k := range kids[rid] {
			if k.Name != "nn.train" && k.Name != "core.infer" {
				sum += k.Duration()
			}
		}
		if d := absDuration(sum - run.Duration()); d > worst {
			worst = d
		}
	}
	b.check(len(b.decideSpans) > 0, "the traced run recorded no decision runs")
	b.check(worst <= 100*time.Microsecond, "decision-run children plus self time miss the run span by %v", worst)
	b.logf("trace decision runs=%d accounting_error_max=%v spans=%d", len(b.decideSpans), worst, len(spans))

	c := b.counts
	cycles := float64(b.countCycles)
	escalations := c[telemetry.MetricShardEscalations]
	migrations := c[telemetry.MetricShardMigrations]
	rows := c[telemetry.MetricInferenceBatchSize+":sum"]
	rpc := func(kind, part string) float64 {
		v := c[telemetry.MetricDaemonRPCSeconds+"{"+kind+"}:"+part]
		if part == "sum" {
			v *= 1e3
		}
		return v
	}
	untraced := ratio(float64(b.runs), b.runWall.Seconds())
	traced := ratio(float64(b.tracedRuns), b.tracedWall.Seconds())
	n := len(b.decideSpans)
	return []metric{
		{"scenario.run_self_ms_p50", percentile(scenSelf, 50), "ms", len(scenSelf)},
		{"scenario.accesses", float64(b.accesses), "count", b.countRuns},
		{"storagesim.apply_ms_p50", percentile(applyMS, 50), "ms", len(applyMS)},
		{"storagesim.moves", c[telemetry.MetricMovementsTotal], "count", b.countRuns},
		{"storagesim.gbps_mean", b.gbps, "GB/s", b.gbpsAccesses},
		{"storagesim.moved_gb", c[telemetry.MetricMovedBytesTotal] / 1e9, "GB", b.countRuns},
		{"replaydb.record_us_p50", percentile(recordUS, 50), "us", len(recordUS)},
		{"replaydb.record_us_p99", percentile(recordUS, 99), "us", len(recordUS)},
		{"replaydb.inserts", c[telemetry.MetricReplayAccessInserts], "count", b.countRuns},
		{"replaydb.queries", c[telemetry.MetricReplayQueriesTotal], "count", b.countRuns},
		{"nn.train_ms_p50", percentile(b.trainMS, 50), "ms", n},
		{"nn.train_samples", percentile(b.trainSamples, 50), "count", n},
		{"nn.trainings", c[telemetry.MetricTrainingsTotal], "count", b.countRuns},
		{"nn.train_share", ratio(trainTotal, decideTotal), "ratio", n},
		{"core.infer_ms_p50", percentile(b.inferMS, 50), "ms", n},
		{"core.decide_self_ms_p50", percentile(selfMS, 50), "ms", n},
		{"core.rows_scored", ratio(rows, cycles), "count", b.countCycles},
		{"core.rows_scored_ratio", ratio(rows, cycles*float64(b.cands)), "ratio", b.countCycles},
		{"core.decide_alloc_mb", percentile(b.allocMB, 50), "MB", n},
		{"core.decide_mallocs", percentile(b.mallocs, 50), "count", n},
		{"core.deferrals", c[telemetry.MetricDeferralsTotal], "count", b.countRuns},
		{"core.explored_moves", c[telemetry.MetricExplorationTotal], "count", b.countRuns},
		{"core.shard_escalations", escalations, "count", b.countRuns},
		{"core.shard_migrations", migrations, "count", b.countRuns},
		{"core.migration_ratio", ratio(migrations, escalations), "ratio", b.countRuns},
		{"agents.report_busy_ms", rpc(agents.TypeMetrics, "sum"), "ms", b.countRuns},
		{"agents.reports", rpc(agents.TypeMetrics, "count"), "count", b.countRuns},
		{"agents.query_busy_ms", rpc(agents.TypeRecentQuery, "sum"), "ms", b.countRuns},
		{"agents.queries", rpc(agents.TypeRecentQuery, "count"), "count", b.countRuns},
		{"agents.push_busy_ms", rpc(agents.TypeLayout, "sum"), "ms", b.countRuns},
		{"agents.pushes", rpc(agents.TypeLayout, "count"), "count", b.countRuns},
		{"agents.ack_wait_ms_sum", c[telemetry.MetricAgentAckSeconds+":sum"] * 1e3, "ms", b.countRuns},
		{"agents.retries", c[telemetry.MetricAgentRetriesTotal], "count", b.countRuns},
		{"agents.reconnects", c[telemetry.MetricAgentReconnectsTotal], "count", b.countRuns},
		{"agents.duplicate_batches", c[telemetry.MetricDaemonDuplicateBatches], "count", b.countRuns},
		{"agents.degraded", c[telemetry.MetricAgentDegradedTotal], "count", b.countRuns},
		{"checkpoint.bytes", percentile(b.ckptBytes, 50), "bytes", len(b.ckptBytes)},
		{"checkpoint.save_ms_p50", percentile(saveMS, 50), "ms", len(saveMS)},
		{"checkpoint.restore_ms_p50", percentile(restoreMS, 50), "ms", len(restoreMS)},
		{"trace.overhead_ratio", ratio(traced, untraced), "ratio", b.tracedRuns},
	}
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
