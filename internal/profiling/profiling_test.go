package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

// requireNonEmpty fails unless path exists and holds at least one byte.
func requireNonEmpty(t *testing.T, path string) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatalf("%s is empty", path)
	}
}

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	var sink []int
	for i := 0; i < 1e5; i++ {
		sink = append(sink, i)
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	requireNonEmpty(t, cpu)
	requireNonEmpty(t, mem)
}

func TestStartWithoutPathsIsNoop(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartReportsUnwritablePath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "cpu.out")
	if _, err := Start(missing, ""); err == nil {
		t.Fatal("Start succeeded on an unwritable path")
	}
}
