package policy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"geomancy/internal/rng"
)

// stubModel is a canned Model: counts Retrain/Update calls and replays a
// fixed proposal.
type stubModel struct {
	retrains, updates int
	notReadyUntil     int // Update fails with ErrNotReady before this many retrains
	layout            map[int64]string
	preds             []Prediction
}

func (m *stubModel) Retrain(context.Context) error { m.retrains++; return nil }

func (m *stubModel) Update(context.Context) error {
	if m.retrains < m.notReadyUntil {
		return fmt.Errorf("stub: %w", ErrNotReady)
	}
	m.updates++
	return nil
}

func (m *stubModel) Propose(context.Context, State) (map[int64]string, []Prediction, error) {
	return m.layout, m.preds, nil
}

func TestOnlineRetrainCadence(t *testing.T) {
	m := &stubModel{}
	p := &Online{Model: m, RetrainEvery: 3}
	ctx := context.Background()
	for i := 0; i < 7; i++ {
		if _, err := p.Propose(ctx, State{}); err != nil {
			t.Fatal(err)
		}
	}
	// Calls 0, 3, 6 retrain; 1, 2, 4, 5 update.
	if m.retrains != 3 || m.updates != 4 {
		t.Errorf("retrains=%d updates=%d, want 3/4", m.retrains, m.updates)
	}
}

func TestOnlineFallsBackOnNotReady(t *testing.T) {
	// The model rejects updates until it has seen 2 retrains: the policy
	// must fall back to a retrain instead of proposing untrained.
	m := &stubModel{notReadyUntil: 2}
	p := &Online{Model: m, RetrainEvery: 4}
	ctx := context.Background()
	if _, err := p.Propose(ctx, State{}); err != nil { // call 0: retrain
		t.Fatal(err)
	}
	if _, err := p.Propose(ctx, State{}); err != nil { // call 1: update → not ready → retrain
		t.Fatal(err)
	}
	if m.retrains != 2 || m.updates != 0 {
		t.Errorf("retrains=%d updates=%d, want 2/0 (fallback)", m.retrains, m.updates)
	}
	if _, err := p.Propose(ctx, State{}); err != nil { // call 2: update succeeds now
		t.Fatal(err)
	}
	if m.updates != 1 {
		t.Errorf("updates=%d, want 1", m.updates)
	}
}

func TestOnlineStateRoundTrip(t *testing.T) {
	m := &stubModel{}
	p := &Online{Model: m, RetrainEvery: 2}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := p.Propose(ctx, State{}); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := p.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Online{Model: &stubModel{}, RetrainEvery: 2}
	if err := restored.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if restored.calls != p.calls {
		t.Errorf("restored calls=%d, want %d", restored.calls, p.calls)
	}
	// The restored counter keeps the cadence phase: call 3 is an update.
	rm := restored.Model.(*stubModel)
	if _, err := restored.Propose(ctx, State{}); err != nil {
		t.Fatal(err)
	}
	if rm.retrains != 0 || rm.updates != 1 {
		t.Errorf("restored cadence: retrains=%d updates=%d, want 0/1", rm.retrains, rm.updates)
	}
}

func TestUnmarshalBadState(t *testing.T) {
	p := &Online{Model: &stubModel{}}
	if err := p.UnmarshalState([]byte("not gob")); !errors.Is(err, ErrBadState) {
		t.Errorf("err = %v, want ErrBadState", err)
	}
}

// tieredState builds two tiers (ssd: s0 s1 fast; hdd: h0 h1 slow) and
// four files: 1 and 2 hot (on h0 and s0), 3 and 4 cold (on s1 and h1).
func tieredState() State {
	return State{
		Devices: []DeviceInfo{
			{Name: "s0", Throughput: 1000, Class: "ssd"},
			{Name: "s1", Throughput: 900, Class: "ssd"},
			{Name: "h0", Throughput: 100, Class: "hdd"},
			{Name: "h1", Throughput: 80, Class: "hdd"},
		},
		Files: []FileInfo{
			{ID: 1, Device: "h0", Accesses: 50},
			{ID: 2, Device: "s0", Accesses: 40},
			{ID: 3, Device: "s1", Accesses: 1},
			{ID: 4, Device: "h1", Accesses: 0},
		},
	}
}

func TestTieredGatesMoves(t *testing.T) {
	s := tieredState()
	m := &stubModel{
		layout: map[int64]string{1: "s1", 2: "s1", 3: "s0", 4: "h0"},
		preds: []Prediction{
			{FileID: 1, Current: "h0", Chosen: "s1"}, // hot promotion: allowed
			{FileID: 2, Current: "s0", Chosen: "s1"}, // lateral inside ssd: suppressed
			{FileID: 3, Current: "s1", Chosen: "s0"}, // cold lateral: suppressed
			{FileID: 4, Current: "h1", Chosen: "s0"}, // cold promotion: suppressed
		},
	}
	p := &Tiered{Model: m}
	layout, err := p.Propose(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{1: "s1", 2: "s0", 3: "s1", 4: "h1"}
	if !reflect.DeepEqual(layout, want) {
		t.Errorf("layout = %v, want %v", layout, want)
	}
}

func TestTieredNeverDemotesHot(t *testing.T) {
	s := tieredState()
	m := &stubModel{
		layout: map[int64]string{2: "h1"},
		preds:  []Prediction{{FileID: 2, Current: "s0", Chosen: "h1"}},
	}
	p := &Tiered{Model: m}
	layout, err := p.Propose(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if layout[2] != "s0" {
		t.Errorf("hot file demoted to %q, want kept on s0", layout[2])
	}
}

func TestTieredAllowsColdDemotion(t *testing.T) {
	s := tieredState()
	m := &stubModel{
		layout: map[int64]string{3: "h1"},
		preds:  []Prediction{{FileID: 3, Current: "s1", Chosen: "h1"}},
	}
	p := &Tiered{Model: m}
	layout, err := p.Propose(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if layout[3] != "h1" {
		t.Errorf("cold demotion suppressed (got %q), want h1", layout[3])
	}
}

func TestDeviceTiersRanking(t *testing.T) {
	tiers := deviceTiers(tieredState().Devices)
	want := map[string]int{"s0": 0, "s1": 0, "h0": 1, "h1": 1}
	if !reflect.DeepEqual(tiers, want) {
		t.Errorf("tiers = %v, want %v", tiers, want)
	}
	// Unclassified devices form their own single-device classes.
	tiers = deviceTiers([]DeviceInfo{
		{Name: "a", Throughput: 10},
		{Name: "b", Throughput: 20},
	})
	if tiers["b"] != 0 || tiers["a"] != 1 {
		t.Errorf("unclassified tiers = %v, want b→0, a→1", tiers)
	}
}

func TestRandomStaticStateRoundTrip(t *testing.T) {
	s := testState(12)
	p := &RandomStatic{Rng: rng.New(9)}
	ctx := context.Background()
	if _, err := p.Propose(ctx, s); err != nil {
		t.Fatal(err)
	}
	blob, err := p.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored := &RandomStatic{}
	if err := restored.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	// The one-shot flag survives: the restored policy must not re-fire.
	layout, err := restored.Propose(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if layout != nil {
		t.Error("restored random-static re-fired its one-shot layout")
	}
}

func TestRandomDynamicStateRoundTrip(t *testing.T) {
	s := testState(12)
	a := &RandomDynamic{Rng: rng.New(9)}
	b := &RandomDynamic{Rng: rng.New(9)}
	ctx := context.Background()
	if _, err := a.Propose(ctx, s); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Propose(ctx, s); err != nil {
		t.Fatal(err)
	}
	// Round-trip a's RNG register into a fresh instance: its next draw
	// must match b's (same stream, same position).
	blob, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	restored := &RandomDynamic{}
	if err := restored.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	la, err := restored.Propose(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.Propose(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(la, lb) {
		t.Error("restored random-dynamic diverged from the uninterrupted stream")
	}
}

func TestOneShotStateRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Policy
	}{
		{"static", func() Policy { return &Static{Desc: "s", Target: map[int64]string{1: "d0"}} }},
		{"single-mount", func() Policy { return &SingleMount{Device: "d0"} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testState(4)
			p := tc.mk()
			ctx := context.Background()
			if _, err := p.Propose(ctx, s); err != nil {
				t.Fatal(err)
			}
			blob, err := p.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			restored := tc.mk()
			if err := restored.UnmarshalState(blob); err != nil {
				t.Fatal(err)
			}
			layout, err := restored.Propose(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if layout != nil {
				t.Errorf("%s re-fired after restore", tc.name)
			}
		})
	}
}

func TestCatalogueNames(t *testing.T) {
	names := Names()
	if len(names) != len(Catalogue()) {
		t.Fatal("Names/Catalogue length mismatch")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate catalogue name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"geomancy", "online-geomancy", "tiered-geomancy", "lru", "noop"} {
		if !seen[want] {
			t.Errorf("catalogue missing %q", want)
		}
	}
	if last := names[len(names)-1]; last != "tiered-geomancy" {
		t.Errorf("catalogue order changed: last = %q", last)
	}
}
