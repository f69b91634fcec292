package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geomancy/internal/experiments"
)

// capture redirects stdout around f.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	errRun := f()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	if errRun != nil {
		t.Fatal(errRun)
	}
	return string(buf[:n])
}

func TestRunExperimentTable1(t *testing.T) {
	out := capture(t, func() error {
		return runExperiment("table1", experiments.Quick(1), false)
	})
	if !strings.Contains(out, "Model 23") {
		t.Errorf("table1 output missing models:\n%s", out)
	}
}

func TestRunExperimentFig4(t *testing.T) {
	out := capture(t, func() error {
		return runExperiment("fig4", experiments.Quick(1), false)
	})
	if !strings.Contains(out, "pearson r") {
		t.Errorf("fig4 output missing header:\n%s", out)
	}
}

func TestRunExperimentFig4CSV(t *testing.T) {
	out := capture(t, func() error {
		return runExperiment("fig4", experiments.Quick(1), true)
	})
	if !strings.HasPrefix(out, "feature,pearson r") {
		t.Errorf("CSV output wrong:\n%s", out[:60])
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if err := runExperiment("bogus", experiments.Quick(1), false); err == nil {
		t.Error("unknown id should error")
	}
}

// -cpuprofile and -memprofile must each leave a non-empty profile behind.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	capture(t, func() error {
		if code := run([]string{"-id", "table1", "-cpuprofile", cpu, "-memprofile", mem}); code != 0 {
			t.Errorf("exit code %d", code)
		}
		return nil
	})
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: stat %v, want a non-empty file", path, err)
		}
	}
}

func TestRunRejectsUnknownScale(t *testing.T) {
	if code := run([]string{"-scale", "huge"}); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
}
