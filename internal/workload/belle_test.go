package workload

import (
	"context"
	"errors"
	"testing"

	"geomancy/internal/storagesim"
	"geomancy/internal/telemetry"
	"geomancy/internal/trace"
)

func newTestRunner(t *testing.T, seed int64) *Runner {
	t.Helper()
	cluster := storagesim.NewBluesky(seed)
	files := trace.BelleFileSet(seed)
	r := NewRunner(cluster, files, 1, seed)
	if err := r.SpreadEvenly(cluster.DeviceNames()); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSpreadEvenly(t *testing.T) {
	r := newTestRunner(t, 1)
	counts := map[string]int{}
	for _, f := range r.Cluster().Files() {
		counts[f.Device]++
	}
	// 24 files over 6 devices → 4 each.
	if len(counts) != 6 {
		t.Fatalf("files on %d devices, want 6", len(counts))
	}
	for dev, n := range counts {
		if n != 4 {
			t.Errorf("device %s has %d files, want 4", dev, n)
		}
	}
}

func TestSpreadEvenlyNoDevices(t *testing.T) {
	cluster := storagesim.NewBluesky(1)
	r := NewRunner(cluster, trace.BelleFileSet(1), 1, 1)
	if err := r.SpreadEvenly(nil); err == nil {
		t.Error("spreading across no devices should error")
	}
}

func TestRunOnceProducesTelemetry(t *testing.T) {
	r := newTestRunner(t, 2)
	var observed int
	var lastRun int
	stats, err := r.RunOnceContext(context.Background(), func(res storagesim.AccessResult, wl, run int) {
		observed++
		lastRun = run
		if wl != 1 {
			t.Errorf("workload id = %d, want 1", wl)
		}
		if res.Throughput <= 0 {
			t.Error("non-positive throughput observed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accesses != observed {
		t.Errorf("stats.Accesses = %d, observer saw %d", stats.Accesses, observed)
	}
	// 24 files × 10..20 accesses each.
	if stats.Accesses < 240 || stats.Accesses > 480 {
		t.Errorf("accesses = %d, want within [240,480]", stats.Accesses)
	}
	if stats.MeanThroughput <= 0 || stats.Bytes <= 0 || stats.Duration <= 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
	if lastRun != 0 || r.Runs() != 1 {
		t.Errorf("run bookkeeping wrong: lastRun %d, Runs %d", lastRun, r.Runs())
	}

	// Second run increments the counter.
	stats2, err := r.RunOnceContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Run != 1 || r.Runs() != 2 {
		t.Errorf("second run index = %d, Runs = %d", stats2.Run, r.Runs())
	}
}

func TestApplyLayoutMovesFiles(t *testing.T) {
	r := newTestRunner(t, 3)
	layout := map[int64]string{}
	for _, f := range r.Files() {
		layout[f.ID] = "file0"
	}
	moves, err := r.ApplyLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	// 4 files already on file0 → 20 moves.
	if len(moves) != 20 {
		t.Errorf("moves = %d, want 20", len(moves))
	}
	for _, f := range r.Cluster().Files() {
		if f.Device != "file0" {
			t.Errorf("file %d still on %s", f.ID, f.Device)
		}
	}
	// Idempotent: re-applying produces no moves.
	moves, err = r.ApplyLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Errorf("re-apply produced %d moves, want 0", len(moves))
	}
}

func TestApplyLayoutSkipsInvalidDestination(t *testing.T) {
	r := newTestRunner(t, 4)
	r.Cluster().SetAvailable("USBtmp", false)
	layout := map[int64]string{r.Files()[0].ID: "USBtmp", r.Files()[1].ID: "file0"}
	moves, err := r.ApplyLayout(layout)
	if err != nil {
		t.Fatal(err)
	}
	// The USBtmp move is skipped, the file0 move may or may not be needed.
	for _, mv := range moves {
		if mv.To == "USBtmp" {
			t.Error("moved onto an unavailable device")
		}
	}
}

func TestApplyLayoutPartial(t *testing.T) {
	r := newTestRunner(t, 5)
	before := r.Cluster().Layout()
	// Move only file 1; everything else untouched.
	var target string
	if before[1] == "file0" {
		target = "pic"
	} else {
		target = "file0"
	}
	moves, err := r.ApplyLayout(map[int64]string{1: target})
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].FileID != 1 {
		t.Fatalf("moves = %+v", moves)
	}
	after := r.Cluster().Layout()
	for id, dev := range before {
		if id == 1 {
			continue
		}
		if after[id] != dev {
			t.Errorf("file %d moved unexpectedly %s → %s", id, dev, after[id])
		}
	}
}

func TestRunStatsLatencyPercentiles(t *testing.T) {
	r := newTestRunner(t, 9)
	stats, err := r.RunOnceContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LatencyP50 <= 0 {
		t.Fatalf("p50 = %v, want > 0", stats.LatencyP50)
	}
	if stats.LatencyP50 > stats.LatencyP95 || stats.LatencyP95 > stats.LatencyP99 {
		t.Errorf("percentiles not monotone: p50 %v p95 %v p99 %v",
			stats.LatencyP50, stats.LatencyP95, stats.LatencyP99)
	}
	// No single access can outlast the whole run (serial virtual clock), so
	// p99 is bounded by the run duration even after bucket rounding.
	if stats.LatencyP99 > 2*stats.Duration {
		t.Errorf("p99 %v implausible for a run of duration %v", stats.LatencyP99, stats.Duration)
	}
}

func TestMetricsObserver(t *testing.T) {
	r := newTestRunner(t, 10)
	reg := telemetry.NewRegistry()
	obs := MetricsObserver(reg)
	stats, err := r.RunOnceContext(context.Background(), obs)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, dev := range r.Cluster().DeviceNames() {
		total += reg.Counter(telemetry.MetricAccessesTotal, telemetry.L("device", dev)).Value()
	}
	if total != uint64(stats.Accesses) {
		t.Errorf("device counters sum to %d, run made %d accesses", total, stats.Accesses)
	}
	if MetricsObserver(nil) != nil {
		t.Error("nil registry should yield a nil observer")
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() RunStats {
		r := newTestRunner(t, 7)
		s, err := r.RunOnceContext(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("equal seeds gave different runs:\n  %+v\n  %+v", a, b)
	}
}

func TestRunErrorsOnUnavailableDevice(t *testing.T) {
	r := newTestRunner(t, 8)
	r.Cluster().SetAvailable("pic", false)
	if _, err := r.RunOnceContext(context.Background(), nil); err == nil {
		t.Error("run should fail when a hosting device disappears")
	}
}

// A cancelled context aborts a run between accesses: partial stats come
// back with ctx.Err() and the run does not count as completed.
func TestRunOnceContextCancel(t *testing.T) {
	r := newTestRunner(t, 6)
	ctx, cancel := context.WithCancel(context.Background())
	var seen int
	_, err := r.RunOnceContext(ctx, func(res storagesim.AccessResult, wl, run int) {
		seen++
		if seen == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunOnceContext = %v, want context.Canceled", err)
	}
	if seen != 3 {
		t.Errorf("observer saw %d accesses after cancel at 3", seen)
	}
	if r.Runs() != 0 {
		t.Errorf("cancelled run counted as completed (%d runs)", r.Runs())
	}
	// The runner remains usable: the next uncancelled run completes.
	stats, err := r.RunOnceContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accesses == 0 || r.Runs() != 1 {
		t.Errorf("runner unusable after cancellation: %+v runs=%d", stats, r.Runs())
	}
}
