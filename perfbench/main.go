// Command perfbench is the repository's closed-loop benchmark. It drives
// the system through the public facade (geomancy.New, System.Run,
// System.Checkpoint, geomancy.Restore) on one workload, checks the
// outputs, and prints every metric by name with its unit and sample count,
// then one JSON result line:
//
//	go run . -workload belle-paper -seed 1 -seconds 30 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 runs traced and
// untraced episodes alternately and reports the per-layer metrics. See
// README.md for the workloads, metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams injected; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	seed := fs.Int64("seed", 1, "workload seed: the same seed builds the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds (the first episode always completes)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	dir := fs.String("workdir", "", "scratch directory for ReplayDB logs and checkpoints, removed on exit (default: a new temporary directory)")
	spans := fs.String("spans", "", "with -trace 1, write every span as CSV to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	work := *dir
	var err error
	if work == "" {
		work, err = os.MkdirTemp("", "perfbench")
	} else {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	res, err := benchmark(options{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traced == 1,
		dir:      work,
		log:      stdout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *spans != "" && res.spans != nil {
		if err := res.spans.WriteCSV(*spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	printResult(stdout, res)
	if res.failed > 0 {
		return 1
	}
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints one line per metric, then the JSON result line.
func printResult(w io.Writer, res *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value)}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "metric %-28s %14.6f %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, percentileNote(m))
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(out) // plain floats, strings and ints always marshal
	fmt.Fprintln(w, string(line))
}

// percentileNote flags a timing percentile that rests on fewer than ten
// samples beyond it, naming the highest percentile the sample supports.
func percentileNote(m metric) string {
	i := strings.LastIndex(m.Name, "_p")
	if i < 0 {
		return ""
	}
	p, err := strconv.ParseFloat(m.Name[i+2:], 64)
	if err != nil {
		return ""
	}
	if beyond(m.N, p) >= 10 {
		return ""
	}
	if h := highestSupported(m.N); h > 0 {
		return fmt.Sprintf(" (fewer than 10 samples beyond p%g; highest supported: p%g)", p, h)
	}
	return fmt.Sprintf(" (fewer than 10 samples beyond p%g; no percentile supported)", p)
}
