package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// -cpuprofile and -memprofile must each leave a non-empty profile behind
// after a short distributed run.
func TestProfileFlagsWriteFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	cmd := exec.Command(os.Args[0],
		"-runs", "3", "-seed", "5", "-bootstrap", "1", "-cooldown", "1",
		"-epochs", "2", "-window", "200", "-parallel", "2",
		"-cpuprofile", cpu, "-memprofile", mem)
	cmd.Env = append(os.Environ(), "GEOMANCY_RUN_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("geomancy: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: stat %v, want a non-empty file", path, err)
		}
	}
}
