package scenario

import (
	"context"
	"reflect"
	"testing"

	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

func newCluster(t *testing.T, seed int64) *storagesim.Cluster {
	t.Helper()
	c, err := storagesim.NewCluster(storagesim.BlueskyProfiles(), storagesim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// buildSpread constructs a placed scenario ready to run.
func buildSpread(t *testing.T, name string, seed int64) Workload {
	t.Helper()
	cluster := newCluster(t, seed)
	w, err := New(name, cluster, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SpreadEvenly(cluster.DeviceNames()); err != nil {
		t.Fatal(err)
	}
	return w
}

// access is the cluster-independent identity of one access.
type access struct {
	FileID int64
	Read   int64
	Write  int64
}

// trace runs w for runs runs and returns the full access sequence.
func traceRuns(t *testing.T, w Workload, runs int) []access {
	t.Helper()
	var seq []access
	for i := 0; i < runs; i++ {
		_, err := w.RunOnceContext(context.Background(), func(res storagesim.AccessResult, wl, run int) {
			seq = append(seq, access{FileID: res.FileID, Read: res.BytesRead, Write: res.BytesWritten})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return seq
}

// The registry must expose the whole catalogue, sorted, with belle and
// the six synthetic scenarios present.
func TestRegistryCatalogue(t *testing.T) {
	names := Names()
	want := []string{"belle", "cold-scan", "diurnal-tenants", "hotspot-shift",
		"mixed-sizes", "write-ingest", "zipfian-hot"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, info := range List() {
		if info.Description == "" {
			t.Errorf("scenario %s has no description", info.Name)
		}
	}
	if _, err := New("no-such-scenario", newCluster(t, 1), nil, 1); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// Every scenario must be deterministic: equal seeds yield identical
// access sequences on independently built stacks.
func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a := traceRuns(t, buildSpread(t, name, 42), 3)
			b := traceRuns(t, buildSpread(t, name, 42), 3)
			if len(a) == 0 {
				t.Fatal("no accesses recorded")
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same-seed access sequences diverged")
			}
		})
	}
}

// The belle scenario must reproduce the pre-plane Runner's access
// sequence bit-for-bit: same constructor arguments, same draws.
func TestBelleMatchesRunner(t *testing.T) {
	viaScenario := traceRuns(t, buildSpread(t, "belle", 7), 3)

	cluster := newCluster(t, 7)
	r := workload.NewRunner(cluster, trace.BelleFileSet(7), 1, 7)
	if err := r.SpreadEvenly(cluster.DeviceNames()); err != nil {
		t.Fatal(err)
	}
	direct := traceRuns(t, r, 3)

	if !reflect.DeepEqual(viaScenario, direct) {
		t.Fatal("belle scenario diverged from the direct Runner")
	}
}

// A MarshalState/UnmarshalState round trip taken mid-experiment must
// continue the access sequence exactly, for every scenario.
func TestMarshalRoundTripMidRun(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			w := buildSpread(t, name, 11)
			traceRuns(t, w, 2)
			blob, err := w.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			want := traceRuns(t, w, 2)

			restored := buildSpread(t, name, 11)
			if err := restored.UnmarshalState(blob); err != nil {
				t.Fatal(err)
			}
			if restored.Runs() != 2 {
				t.Fatalf("restored run counter = %d, want 2", restored.Runs())
			}
			if got := traceRuns(t, restored, 2); !reflect.DeepEqual(got, want) {
				t.Fatal("restored access sequence diverged")
			}
		})
	}
}

// hotspot-shift's hot set must actually migrate: the most-accessed file
// of the first shift window differs from the window after the shift.
func TestHotspotShiftMigrates(t *testing.T) {
	w := buildSpread(t, "hotspot-shift", 3)
	hottest := func(seq []access) int64 {
		counts := map[int64]int{}
		for _, a := range seq {
			counts[a.FileID]++
		}
		var best int64
		for id, n := range counts {
			if n > counts[best] {
				best = id
			}
		}
		return best
	}
	before := hottest(traceRuns(t, w, 10))
	after := hottest(traceRuns(t, w, 10))
	if before == after {
		t.Fatalf("hot set did not migrate: file %d hottest in both windows", before)
	}
}

// write-ingest must be write-heavy in its ingest phase and read-mostly
// after its phase boundary at run 30.
func TestWriteIngestPhases(t *testing.T) {
	w := buildSpread(t, "write-ingest", 5)
	writeFrac := func(seq []access) float64 {
		writes := 0
		for _, a := range seq {
			if a.Write > 0 {
				writes++
			}
		}
		return float64(writes) / float64(len(seq))
	}
	ingest := writeFrac(traceRuns(t, w, 5))
	if ingest < 0.6 {
		t.Errorf("ingest-phase write fraction = %.2f, want ≥ 0.6", ingest)
	}
	traceRuns(t, w, 25) // advance to the analysis phase
	analysis := writeFrac(traceRuns(t, w, 5))
	if analysis > 0.2 {
		t.Errorf("analysis-phase write fraction = %.2f, want ≤ 0.2", analysis)
	}
}

// cold-scan must sweep the whole population: a single run touches every
// file, in order.
func TestColdScanCoversPopulation(t *testing.T) {
	w := buildSpread(t, "cold-scan", 9)
	seq := traceRuns(t, w, 1)
	seen := map[int64]bool{}
	for _, a := range seq {
		seen[a.FileID] = true
	}
	if n := len(w.Files()); len(seen) != n {
		t.Fatalf("one scan run touched %d of %d files", len(seen), n)
	}
}

// diurnal-tenants must alternate dominance between the two file halves.
func TestDiurnalTenantsAlternate(t *testing.T) {
	w := buildSpread(t, "diurnal-tenants", 13)
	half := int64(len(w.Files())) / 2
	firstHalfShare := func(seq []access) float64 {
		first := 0
		for _, a := range seq {
			if a.FileID <= half { // IDs are 1-based
				first++
			}
		}
		return float64(first) / float64(len(seq))
	}
	early := firstHalfShare(traceRuns(t, w, 8))
	late := firstHalfShare(traceRuns(t, w, 8))
	if early < 0.7 {
		t.Errorf("tenant 0 share in its window = %.2f, want ≥ 0.7", early)
	}
	if late > 0.3 {
		t.Errorf("tenant 0 share off-window = %.2f, want ≤ 0.3", late)
	}
}

// mixed-sizes must generate its own heterogeneous population, every size
// inside the histogram's bounds.
func TestMixedSizesPopulation(t *testing.T) {
	w := buildSpread(t, "mixed-sizes", 17)
	files := w.Files()
	if len(files) != MixedSizeFileCount {
		t.Fatalf("population = %d files, want %d", len(files), MixedSizeFileCount)
	}
	buckets := mixedSizeBuckets()
	lo, hi := buckets[0].Lo, buckets[len(buckets)-1].Hi
	small := 0
	for _, f := range files {
		if f.Size < lo || f.Size > hi {
			t.Fatalf("file %s size %d outside histogram bounds", f.Path, f.Size)
		}
		if f.Size <= buckets[0].Hi {
			small++
		}
	}
	if small == 0 || small == len(files) {
		t.Errorf("population not heterogeneous: %d/%d small files", small, len(files))
	}
}

// A state blob from a structurally different scenario must be rejected,
// not silently absorbed.
func TestUnmarshalRejectsMismatchedShape(t *testing.T) {
	ingest := buildSpread(t, "write-ingest", 1)
	plain := buildSpread(t, "zipfian-hot", 1)
	blob, err := ingest.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.UnmarshalState(blob); err == nil {
		t.Error("zipfian-hot absorbed a write-ingest snapshot")
	}
}
