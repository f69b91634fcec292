package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func span(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	parent := span(0, -1, "run", 0, 100)
	for _, tc := range []struct {
		name string
		kids []Span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []Span{span(1, 0, "a", 10, 20), span(2, 0, "b", 50, 60)}, 80},
		{"overlapping children count once", []Span{span(1, 0, "a", 10, 30), span(2, 0, "b", 15, 40)}, 70},
		{"nested child inside another", []Span{span(1, 0, "a", 10, 50), span(2, 0, "b", 20, 30)}, 60},
		{"clipped to the parent", []Span{span(1, 0, "a", -10, 5), span(2, 0, "b", 90, 120)}, 85},
		{"unsorted", []Span{span(2, 0, "b", 50, 60), span(1, 0, "a", 10, 20)}, 80},
		{"fully covered", []Span{span(1, 0, "a", 0, 60), span(2, 0, "b", 60, 100)}, 0},
		{"empty child", []Span{span(1, 0, "a", 40, 40)}, 100},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRecorderChildren(t *testing.T) {
	var nilRec *Recorder
	if id := nilRec.Begin("x", -1, 0); id != -1 {
		t.Fatalf("nil recorder Begin = %d, want -1", id)
	}
	nilRec.End(-1)
	r := NewRecorder()
	root := r.Begin("run", -1, 0)
	kid := r.Begin("scenario.run", root, 0)
	r.End(kid)
	r.Add("nn.train", root, 0, r.Get(kid).End, r.Get(kid).End)
	r.End(root)
	kids := children(r.Spans())[root]
	if len(kids) != 2 || kids[0].Name != "scenario.run" || kids[1].Name != "nn.train" {
		t.Fatalf("children of root = %+v", kids)
	}
	run := r.Get(root)
	if self := selfTime(run, kids); self != run.Duration()-r.Get(kid).Duration() {
		t.Fatalf("self %v, want run %v minus child %v", self, run.Duration(), r.Get(kid).Duration())
	}
}

func TestHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99},
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if got := beyond(40, 75); got != 10 {
		t.Errorf("beyond(40, 75) = %d, want 10", got)
	}
	if got := beyond(39, 75); got != 9 {
		t.Errorf("beyond(39, 75) = %d, want 9", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 50: 3, 75: 4, 100: 5, 90: 4.6} {
		if got := percentile(xs, p); got < want-1e-12 || got > want+1e-12 {
			t.Errorf("percentile(%v) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of an empty sample should be 0")
	}
}

func TestPercentileNote(t *testing.T) {
	if n := percentileNote(metric{Name: "decide_run_ms_p75", N: 40}); n != "" {
		t.Errorf("p75 over 40 samples flagged: %q", n)
	}
	if n := percentileNote(metric{Name: "decide_run_ms_p75", N: 39}); !strings.Contains(n, "highest supported: p50") {
		t.Errorf("p75 over 39 samples: %q", n)
	}
	if n := percentileNote(metric{Name: "setup_s", N: 3}); n != "" {
		t.Errorf("non-percentile metric flagged: %q", n)
	}
}

// contract is the part of BENCHMARK.json the output must match.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestWorkloadsMatchContract(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloadNames[i])
		}
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks the checks pass and every contract metric is emitted with its
// unit and nothing else is.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			var log bytes.Buffer
			res, err := benchmark(options{workload: name, seed: 3, trace: traced, tiny: true, dir: t.TempDir(), log: &log})
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, traced, err, log.String())
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d ops failed\n%s", name, traced, res.failed, res.attempted, log.String())
			}
			got := make(map[string]string)
			for _, m := range res.metrics {
				got[m.Name] = m.Unit
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, contract has %d", name, traced, len(got), len(want))
			}
			for _, m := range want {
				if u, ok := got[m.Name]; !ok || u != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q (emitted %v), want %q", name, traced, m.Name, u, ok, m.Unit)
				}
			}
			if !traced {
				for _, m := range res.metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, m.Name, m.Value)
					}
				}
			}
			var out bytes.Buffer
			printResult(&out, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", name, err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[k]; !ok || len(last) != 4 {
					t.Fatalf("%s: result keys %v, want exactly correct/attempted/failed/metrics", name, last)
				}
			}
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-workload", "nope", "-workdir", t.TempDir()}, &out, &errs); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatal("unknown workload printed a result")
	}
}
