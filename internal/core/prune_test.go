package core

import (
	"fmt"
	"reflect"
	"testing"

	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
)

// blueskySummaries mirrors the paper cluster's class structure with fixed
// recent throughputs, so shortlist tests are deterministic. With TopK ≥ 2
// every device is shortlisted (no class has more than two members).
func blueskySummaries() []storagesim.DeviceSummary {
	return []storagesim.DeviceSummary{
		{Name: "file0", Class: "raid5", RecentThroughput: 8e9, Available: true},
		{Name: "pic", Class: "lustre", RecentThroughput: 2e9, Available: true},
		{Name: "people", Class: "nfs", RecentThroughput: 1.7e9, Available: true},
		{Name: "tmp", Class: "raid1", RecentThroughput: 1.6e9, Available: true},
		{Name: "var", Class: "raid1", RecentThroughput: 1.3e9, Available: true},
		{Name: "USBtmp", Class: "usb", RecentThroughput: 0.6e9, Available: true},
	}
}

// countingStore wraps the ReplayDB, counting per-file feature fetches —
// the per-decision cost the pruning plane exists to avoid. The embedded
// DB keeps the ChangeTracker capability visible to the engine.
type countingStore struct {
	*replaydb.DB
	byFileCalls int
}

func (c *countingStore) RecentByFile(id int64, n int) []replaydb.AccessRecord {
	c.byFileCalls++
	return c.DB.RecentByFile(id, n)
}

func testFiles() []FileMeta {
	return []FileMeta{
		{ID: 1, Path: "/a", Size: 1e8, Device: "pic"},
		{ID: 2, Path: "/b", Size: 2e8, Device: "USBtmp"},
		{ID: 3, Path: "/c", Size: 5e7, Device: "file0"},
		{ID: 4, Path: "/d", Size: 3e8, Device: "tmp"},
	}
}

func TestDeviceShortlist(t *testing.T) {
	db := seedDB(t, 100)
	cfg := quickCfg()
	cfg.TopK = 1
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// No summary source: every device.
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("sourceless shortlist = %v", got)
	}

	sums := blueskySummaries()
	e.SetSummarySource(func() []storagesim.DeviceSummary { return sums })
	// TopK=1: one device per class; raid1 keeps tmp (higher throughput),
	// drops var (index 4).
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 5}) {
		t.Fatalf("top-1 shortlist = %v", got)
	}
	// TopK=2 covers the full cluster.
	e.cfg.TopK = 2
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("top-2 shortlist = %v", got)
	}
	// Unavailable and read-only devices never shortlist.
	sums[0].Available = false
	sums[3].ReadOnly = true
	e.cfg.TopK = 1
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{1, 2, 4, 5}) {
		t.Fatalf("degraded shortlist = %v", got)
	}
}

func TestColdFileSymmetricPrior(t *testing.T) {
	db := seedDB(t, 1200)
	e, err := NewEngine(db, testDevices, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// A file with no telemetry history gets the symmetric prior: half its
	// size split evenly across read and write volume.
	ff := e.gatherFileFeatures(FileMeta{ID: 999, Size: 1000}, false)
	if ff.rb != 250 || ff.wb != 250 || ff.ts != 0 {
		t.Fatalf("cold prior = %+v, want rb=wb=250 ts=0", ff)
	}
	// The prior reaches the batched decision path and the per-pair
	// reference identically.
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}
	matchPredictCandidate(t, e, []FileMeta{{ID: 999, Path: "/new", Size: 5e8, Device: "pic"}})
}

// TestPrunedMatchesExhaustive is the layout-agreement contract at engine
// level: with a shortlist covering every device (TopK=2 on the Bluesky
// class structure), a pruned engine and an exhaustive engine of the same
// seed propose identical layouts decision after decision — through cache
// hits, dirty files, retrains, and exploration draws.
func TestPrunedMatchesExhaustive(t *testing.T) {
	mk := func(topK int) (*Engine, *replaydb.DB) {
		db := seedDB(t, 1200)
		cfg := quickCfg()
		cfg.Epsilon = 0.3 // plenty of exploration: the RNG streams must stay aligned
		cfg.TopK = topK
		cfg.FullRescanEvery = 4
		e, err := NewEngine(db, testDevices, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
		if _, err := e.Train(); err != nil {
			t.Fatal(err)
		}
		return e, db
	}
	ex, exDB := mk(0)
	pr, prDB := mk(2)

	files := testFiles()
	dirty := func(db *replaydb.DB, id int64) {
		if _, err := db.AppendAccess(replaydb.AccessRecord{
			Time: 2000, FileID: id, Device: "pic", BytesRead: 2e8,
			OpenTS: 2000, CloseTS: 2001, Throughput: 1.5e9,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 10; step++ {
		exLayout, exDec, err := ex.ProposeLayout(files, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		prLayout, prDec, err := pr.ProposeLayout(files, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exLayout, prLayout) {
			t.Fatalf("step %d: pruned layout %v != exhaustive %v", step, prLayout, exLayout)
		}
		for i := range exDec {
			if exDec[i].Chosen != prDec[i].Chosen || exDec[i].Random != prDec[i].Random {
				t.Fatalf("step %d file %d: pruned (%s, random=%v) != exhaustive (%s, random=%v)",
					step, exDec[i].FileID, prDec[i].Chosen, prDec[i].Random, exDec[i].Chosen, exDec[i].Random)
			}
		}
		// Mutate the world between decisions: dirty a file on both DBs,
		// and retrain on a cadence that exercises generation bumps.
		dirty(exDB, int64(step%4+1))
		dirty(prDB, int64(step%4+1))
		if step%3 == 2 {
			if _, err := ex.Train(); err != nil {
				t.Fatal(err)
			}
			if _, err := pr.Train(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ex.rng.State() != pr.rng.State() {
		t.Fatal("RNG streams diverged between pruned and exhaustive modes")
	}
}

// TestPrunedSkipsCleanFiles checks the incremental accounting: after the
// first (exhaustive) decision, a decision with no new telemetry fetches
// no per-file features at all, and a decision with one dirty file fetches
// exactly that file's.
func TestPrunedSkipsCleanFiles(t *testing.T) {
	base := seedDB(t, 1200)
	store := &countingStore{DB: base}
	cfg := quickCfg()
	cfg.Epsilon = 0
	cfg.TopK = 2
	cfg.FullRescanEvery = 100 // keep cadence rescans out of this test
	e, err := NewEngine(store, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.tracker == nil {
		t.Fatal("embedded ReplayDB should expose ChangeTracker")
	}
	e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}

	files := testFiles()
	if _, _, err := e.ProposeLayout(files, nil, nil); err != nil {
		t.Fatal(err)
	}
	first := store.byFileCalls
	if first < len(files) {
		t.Fatalf("exhaustive pass fetched %d files, want ≥ %d", first, len(files))
	}

	// Clean decision: every file reuses its cached full-width scores.
	store.byFileCalls = 0
	_, dec, err := e.ProposeLayout(files, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.byFileCalls != 0 {
		t.Fatalf("clean decision fetched %d file histories, want 0", store.byFileCalls)
	}
	for _, d := range dec {
		if len(d.Predictions) != len(testDevices) {
			t.Fatalf("clean file %d kept %d cached predictions, want full width %d",
				d.FileID, len(d.Predictions), len(testDevices))
		}
	}

	// One dirty file: only it is re-featurized and re-scored.
	if _, err := base.AppendAccess(replaydb.AccessRecord{
		Time: 3000, FileID: 2, Device: "USBtmp", BytesRead: 1e8,
		OpenTS: 3000, CloseTS: 3001, Throughput: 5e8,
	}); err != nil {
		t.Fatal(err)
	}
	store.byFileCalls = 0
	_, dec, err = e.ProposeLayout(files, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.byFileCalls != 1 {
		t.Fatalf("one-dirty-file decision fetched %d file histories, want 1", store.byFileCalls)
	}
	for _, d := range dec {
		want := len(testDevices)
		if d.FileID == 2 {
			// The dirty file was rescored against the shortlist only —
			// which happens to be the full width here (TopK=2 covers the
			// cluster), so it stays at full width too.
			want = len(testDevices)
		}
		if len(d.Predictions) != want {
			t.Fatalf("file %d has %d predictions, want %d", d.FileID, len(d.Predictions), want)
		}
	}
}

// TestPrunedNarrowShortlist checks genuine pruning: with TopK=1 a dirty
// file is scored against strictly fewer devices (shortlist ∪ current),
// while the full-rescan cadence still restores the full width.
func TestPrunedNarrowShortlist(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0
	cfg.TopK = 1
	cfg.FullRescanEvery = 3
	e, err := NewEngine(db, testDevices, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}
	// var (index 4) is outside the top-1 shortlist; a file living there
	// keeps its current device as a candidate anyway.
	files := []FileMeta{{ID: 7, Path: "/v", Size: 1e8, Device: "var"}}
	if _, _, err := e.ProposeLayout(files, nil, nil); err != nil { // decision 0: exhaustive
		t.Fatal(err)
	}
	if _, err := e.Train(); err != nil { // new generation: cached scores stale
		t.Fatal(err)
	}
	_, dec, err := e.ProposeLayout(files, nil, nil) // decision 1: pruned
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"USBtmp", "file0", "people", "pic", "tmp", "var"}
	if len(dec[0].Predictions) != 6 {
		t.Fatalf("pruned width = %d predictions %v", len(dec[0].Predictions), dec[0].Predictions)
	}
	for _, devName := range want {
		if _, ok := dec[0].Predictions[devName]; !ok {
			t.Fatalf("pruned predictions missing %s: %v", devName, dec[0].Predictions)
		}
	}
	// Narrow case: shortlist (5 devices: one per class) ∪ current (var) =
	// 6 of 6 here because every class head is listed. Drop to a world
	// where pruning is visible: exclude classes by marking them
	// unavailable in the summaries.
	sums := blueskySummaries()
	sums[1].Available = false // pic
	sums[2].Available = false // people
	e.SetSummarySource(func() []storagesim.DeviceSummary { return sums })
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}
	_, dec, err = e.ProposeLayout(files, nil, nil) // decision 2: pruned
	if err != nil {
		t.Fatal(err)
	}
	// Shortlist: file0 (raid5), tmp (raid1 head), USBtmp (usb) + current
	// var. pic/people are out, and the retrain staled every cached score,
	// so the decision is over exactly those four devices.
	if _, ok := dec[0].Predictions["pic"]; ok {
		t.Fatalf("pruned decision scored an unavailable class head: %v", dec[0].Predictions)
	}
	if _, ok := dec[0].Predictions["var"]; !ok {
		t.Fatalf("pruned decision must keep the current device: %v", dec[0].Predictions)
	}
	if len(dec[0].Predictions) != 4 {
		t.Fatalf("narrow shortlist did not prune: %v", dec[0].Predictions)
	}
	_, dec, err = e.ProposeLayout(files, nil, nil) // decision 3: cadence rescan
	if err != nil {
		t.Fatal(err)
	}
	if len(dec[0].Predictions) != len(testDevices) {
		t.Fatalf("cadence rescan width = %d, want full %d: %v",
			len(dec[0].Predictions), len(testDevices), dec[0].Predictions)
	}
}

// TestShortlistSeedsNominalDevices is the regression test for the
// never-probed-device starvation bug: a device idle since decision 0
// carries only its nominal-bandwidth fallback in the summaries
// (DeviceSummary.Nominal), and when that spec-sheet guess ranked below a
// classmate's measured throughput, the device fell out of the top-K
// shortlist and was never re-probed until the next full rescan — including
// on the first pruned decision after a checkpoint restore. Never-probed
// devices must always be shortlisted.
func TestShortlistSeedsNominalDevices(t *testing.T) {
	db := seedDB(t, 1200)
	cfg := quickCfg()
	cfg.Epsilon = 0
	cfg.TopK = 1
	cfg.FullRescanEvery = 100 // keep cadence rescans out of this test
	sums := blueskySummaries()
	// var has never served an access: its summary carries the nominal
	// fallback, which ranks below its raid1 classmate tmp's measured rate.
	sums[4].Nominal = true
	mk := func() *Engine {
		e, err := NewEngine(db, testDevices, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetSummarySource(func() []storagesim.DeviceSummary { return sums })
		return e
	}
	e := mk()
	if _, err := e.Train(); err != nil {
		t.Fatal(err)
	}

	// Shortlist level: var (index 4) loses the raid1 top-1 slot to tmp but
	// stays a candidate as a never-probed device.
	if got := e.deviceShortlist(); !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("shortlist with nominal device = %v, want it included", got)
	}

	// Decision level, across a restore: the first pruned decision after the
	// round-trip still scores the idle device.
	files := []FileMeta{{ID: 7, Path: "/t", Size: 1e8, Device: "tmp"}}
	if _, _, err := e.ProposeLayout(files, nil, nil); err != nil { // decision 0: exhaustive
		t.Fatal(err)
	}
	st, err := e.State()
	if err != nil {
		t.Fatal(err)
	}
	r := mk()
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Train(); err != nil { // new generation: cached scores stale
		t.Fatal(err)
	}
	_, dec, err := r.ProposeLayout(files, nil, nil) // decision 1: pruned
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dec[0].Predictions["var"]; !ok {
		t.Fatalf("first pruned decision after restore never probed the idle device: %v", dec[0].Predictions)
	}
}

// TestPrunedStateRoundTrip checks bit-identical resume mid-stream: a
// restored engine continues the decision sequence exactly where the
// original would have, caches and cadence included. TopK = 0 engines
// carry the score cache too, so the exhaustive stream is covered as well.
func TestPrunedStateRoundTrip(t *testing.T) {
	for _, topK := range []int{0, 2} {
		t.Run(fmt.Sprintf("topk=%d", topK), func(t *testing.T) {
			db := seedDB(t, 1200)
			cfg := quickCfg()
			cfg.Epsilon = 0.3
			cfg.TopK = topK
			cfg.FullRescanEvery = 4
			mk := func() *Engine {
				e, err := NewEngine(db, testDevices, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
				return e
			}
			a := mk()
			if _, err := a.Train(); err != nil {
				t.Fatal(err)
			}
			files := testFiles()
			for i := 0; i < 3; i++ {
				if _, _, err := a.ProposeLayout(files, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			st, err := a.State()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.ScoreCache) != len(files) {
				t.Fatalf("snapshot carries %d cache entries, want %d", len(st.ScoreCache), len(files))
			}

			b := mk()
			if err := b.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			// New telemetry lands after the snapshot; both engines see it.
			if _, err := db.AppendAccess(replaydb.AccessRecord{
				Time: 5000, FileID: 3, Device: "file0", BytesRead: 3e8,
				OpenTS: 5000, CloseTS: 5001, Throughput: 6e9,
			}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				la, da, err := a.ProposeLayout(files, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				lb, db2, err := b.ProposeLayout(files, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(la, lb) {
					t.Fatalf("step %d: restored layout %v != original %v", i, lb, la)
				}
				if !reflect.DeepEqual(da, db2) {
					t.Fatalf("step %d: restored decisions diverged", i)
				}
			}
		})
	}
}

// TestFullRescanDropsDepartedFiles checks that a full rescan rebuilds the
// score cache from the current working set: a file that left it loses its
// entry on the next rescan, not before, and files still present keep
// full-width scores.
func TestFullRescanDropsDepartedFiles(t *testing.T) {
	for _, topK := range []int{0, 2} {
		t.Run(fmt.Sprintf("topk=%d", topK), func(t *testing.T) {
			cfg := quickCfg()
			cfg.TopK = topK
			cfg.FullRescanEvery = 3
			e, err := NewEngine(seedDB(t, 1200), testDevices, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.SetSummarySource(func() []storagesim.DeviceSummary { return blueskySummaries() })
			if _, err := e.Train(); err != nil {
				t.Fatal(err)
			}
			files := testFiles()
			if _, _, err := e.ProposeLayout(files, nil, nil); err != nil {
				t.Fatal(err)
			}
			if len(e.cache) != len(files) {
				t.Fatalf("after first decision: %d cache entries, want %d", len(e.cache), len(files))
			}

			// File 4 leaves the working set. Pruned decisions keep its
			// entry; the next rescan (the fourth decision: the first, then
			// every third after it) drops it.
			kept := files[:3]
			for n := 2; n <= 4; n++ {
				if _, _, err := e.ProposeLayout(kept, nil, nil); err != nil {
					t.Fatal(err)
				}
				_, has4 := e.cache[4]
				rescan := topK == 0 || n == 4
				if has4 == rescan {
					t.Fatalf("decision %d (rescan %v): departed file cached = %v", n, rescan, has4)
				}
			}
			if len(e.cache) != len(kept) {
				t.Fatalf("after rescan: %d cache entries, want %d", len(e.cache), len(kept))
			}
			for _, f := range kept {
				for j, g := range e.cache[f.ID].gens {
					if g != e.modelGen {
						t.Fatalf("file %d device %d: generation %d after rescan, want %d", f.ID, j, g, e.modelGen)
					}
				}
			}
			st, err := e.State()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.ScoreCache) != len(kept) {
				t.Fatalf("snapshot carries %d cache entries, want %d", len(st.ScoreCache), len(kept))
			}
		})
	}
}
