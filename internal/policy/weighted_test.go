package policy

import (
	"math/rand"
	"testing"
)

// weightedState: d0 fastest with 60% of free space, d1 mid with 30%,
// d2 slowest with 10%.
func weightedState(nFiles int) State {
	s := State{
		Devices: []DeviceInfo{
			{Name: "d0", Throughput: 300, Free: 600},
			{Name: "d1", Throughput: 200, Free: 300},
			{Name: "d2", Throughput: 100, Free: 100},
		},
	}
	for i := 0; i < nFiles; i++ {
		s.Files = append(s.Files, FileInfo{
			ID:         int64(i + 1),
			Size:       1,
			LastAccess: float64(i + 1),
			Accesses:   int64(100 - i),
		})
	}
	return s
}

func TestWeightedLFUSharesByCapacity(t *testing.T) {
	s := weightedState(20)
	layout := propose(t, Weighted{Base: LFU{}}, s)
	if len(layout) != 20 {
		t.Fatalf("layout covers %d files, want 20", len(layout))
	}
	counts := map[string]int{}
	for _, d := range layout {
		counts[d]++
	}
	// 60/30/10 split of 20 files → 12/6/2.
	if counts["d0"] != 12 || counts["d1"] != 6 || counts["d2"] != 2 {
		t.Errorf("counts = %v, want d0:12 d1:6 d2:2", counts)
	}
	// Hottest files (ids 1..12 by Accesses) land on the fastest device.
	for id := int64(1); id <= 12; id++ {
		if layout[id] != "d0" {
			t.Errorf("hot file %d on %s, want d0", id, layout[id])
		}
	}
}

func TestWeightedLRUOrdering(t *testing.T) {
	s := weightedState(10)
	layout := propose(t, Weighted{Base: LRU{}}, s)
	// Most recent (id 10) on the fastest device.
	if layout[10] != "d0" {
		t.Errorf("most recent file on %s, want d0", layout[10])
	}
	// Least recent on the slowest.
	if layout[1] != "d2" {
		t.Errorf("least recent file on %s, want d2", layout[1])
	}
}

func TestWeightedName(t *testing.T) {
	if got := (Weighted{Base: LFU{}}).Name(); got != "LFU (capacity-weighted)" {
		t.Errorf("Name = %q", got)
	}
}

func TestWeightedUnsupportedBase(t *testing.T) {
	w := Weighted{Base: NoOp{}}
	if l := propose(t, w, weightedState(5)); l != nil {
		t.Error("unsupported base should yield nil layout")
	}
}

func TestWeightedEmptyState(t *testing.T) {
	if l := propose(t, Weighted{Base: LFU{}}, State{}); l != nil {
		t.Error("empty state should yield nil")
	}
}

func TestWeightedZeroCapacityFallsBack(t *testing.T) {
	s := weightedState(12)
	for i := range s.Devices {
		s.Devices[i].Free = 0
	}
	layout := propose(t, Weighted{Base: LFU{}}, s)
	if len(layout) != 12 {
		t.Fatalf("fallback layout covers %d files", len(layout))
	}
	counts := map[string]int{}
	for _, d := range layout {
		counts[d]++
	}
	// Even fallback: 4 each.
	for _, d := range []string{"d0", "d1", "d2"} {
		if counts[d] != 4 {
			t.Errorf("device %s got %d files, want 4 (even fallback)", d, counts[d])
		}
	}
}

func TestWeightedNegativeFreeClamped(t *testing.T) {
	s := weightedState(10)
	s.Devices[2].Free = -50 // over-committed device contributes nothing
	layout := propose(t, Weighted{Base: LFU{}}, s)
	counts := map[string]int{}
	for _, d := range layout {
		counts[d]++
	}
	if counts["d0"] == 0 || counts["d1"] == 0 {
		t.Errorf("healthy devices unused: %v", counts)
	}
	if len(layout) != 10 {
		t.Errorf("layout covers %d files, want 10", len(layout))
	}
}

func TestWeightedRandomizedComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(50)
		s := weightedState(n)
		for _, base := range []Policy{LRU{}, MRU{}, LFU{}} {
			layout := propose(t, Weighted{Base: base}, s)
			if len(layout) != n {
				t.Fatalf("%s weighted layout covers %d of %d files", base.Name(), len(layout), n)
			}
		}
	}
}
