// Package scenario is the workload plane's catalogue: named, seedable
// workloads that drive the simulated cluster through access patterns the
// paper's single BELLE II suite never exercises — zipfian hot sets,
// migrating hotspots, write-heavy ingest, diurnal tenant alternation,
// cold sequential scans, and heterogeneous file populations.
//
// Every scenario satisfies Workload, the full contract the facade, the
// experiments harness, and the checkpoint plane program against; it
// embeds core.Workload, the engine loop's narrower view. The original BELLE II runner
// (internal/workload.Runner) is the "belle" scenario and reproduces its
// pre-plane access sequences bit-for-bit.
package scenario

import (
	"fmt"
	"sort"

	"geomancy/internal/core"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
)

// Workload is a named, checkpointable workload driving a cluster. It
// extends the engine loop's view (core.Workload: Files, ApplyLayout,
// RunOnceContext) with placement, identity, and serialization:
// everything the facade and the experiments harness need to run,
// compare, and resume a scenario.
type Workload interface {
	core.Workload
	// Name identifies the scenario in registries, checkpoints, and
	// policy-matrix tables.
	Name() string
	// SpreadEvenly places the working set round-robin across devices —
	// the paper's basic spread policy, every experiment's starting
	// layout.
	SpreadEvenly(devices []string) error
	// Runs returns the number of completed runs.
	Runs() int
	// MarshalState serializes everything that influences future runs —
	// the RNG stream, run counter, and generator registers — for the
	// checkpoint plane.
	MarshalState() ([]byte, error)
	// UnmarshalState restores MarshalState output; the workload must
	// have been constructed with the same configuration and seed.
	UnmarshalState(data []byte) error
}

// Info describes one registered scenario for listings (-list-scenarios).
type Info struct {
	Name        string
	Description string
}

// builder constructs a scenario over an existing cluster. files may be
// nil, in which case the scenario supplies its default population.
type builder struct {
	desc  string
	build func(cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (Workload, error)
}

// New builds the named scenario against cluster, seeded with seed. A nil
// files slice selects the scenario's default population (the BELLE II
// 24-file set for most; mixed-sizes generates its own). The returned
// workload has not been placed: call SpreadEvenly before running.
func New(name string, cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (Workload, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return b.build(cluster, files, seed)
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// List returns every registered scenario with its description, sorted by
// name.
func List() []Info {
	infos := make([]Info, 0, len(builders))
	for _, name := range Names() {
		infos = append(infos, Info{Name: name, Description: builders[name].desc})
	}
	return infos
}
