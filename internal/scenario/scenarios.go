package scenario

import (
	"fmt"
	"math"

	"geomancy/internal/generator"
	"geomancy/internal/rng"
	"geomancy/internal/storagesim"
	"geomancy/internal/trace"
	"geomancy/internal/workload"
)

// The BELLE II runner and the Core workload both satisfy the scenario
// contract.
var (
	_ Workload = (*workload.Runner)(nil)
	_ Workload = (*Core)(nil)
)

// defaultFiles resolves a scenario's population: the caller's files if
// given, the paper's 24-file BELLE II set otherwise.
func defaultFiles(files []trace.BelleFile, seed int64) []trace.BelleFile {
	if files != nil {
		return files
	}
	return trace.BelleFileSet(seed)
}

// mixedSizeBuckets is the mixed-sizes scenario's population histogram:
// many small files, a mid band, and a heavy tail of huge ones.
func mixedSizeBuckets() []generator.SizeBucket {
	return []generator.SizeBucket{
		{Lo: 64 << 10, Hi: 4 << 20, Weight: 0.6},
		{Lo: 4 << 20, Hi: 256 << 20, Weight: 0.3},
		{Lo: 256 << 20, Hi: 2 << 30, Weight: 0.1},
	}
}

// MixedSizeFileCount is the mixed-sizes scenario's population size.
const MixedSizeFileCount = 48

// mixedSizeFiles generates the mixed-sizes population from the size
// histogram, deterministically from seed. The drawing stream is
// construction-time only and never needs checkpointing.
func mixedSizeFiles(seed int64) ([]trace.BelleFile, error) {
	h, err := generator.NewSizeHistogram(mixedSizeBuckets())
	if err != nil {
		return nil, err
	}
	r := rng.New(seed)
	files := make([]trace.BelleFile, MixedSizeFileCount)
	for i := range files {
		files[i] = trace.BelleFile{
			ID:   int64(i + 1),
			Path: fmt.Sprintf("/mixed/set%02d/file%02d.dat", i/8, i),
			Size: h.Next(r),
		}
	}
	return files, nil
}

// builders is the scenario registry. Every entry must be deterministic:
// equal (cluster seed, files, seed) inputs yield workloads with equal
// access sequences.
var builders = map[string]builder{
	"belle": {
		desc: "the paper's BELLE II Monte-Carlo suite: 24 ROOT files, " +
			"each read 10-20 times in succession per run (§IV)",
		build: func(cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (Workload, error) {
			return workload.NewRunner(cluster, defaultFiles(files, seed), 1, seed), nil
		},
	},
	"zipfian-hot": {
		desc: "zipfian (θ=0.99) key popularity over the working set: a " +
			"stable hot head, a long cold tail, 95% reads",
		build: func(cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (Workload, error) {
			files = defaultFiles(files, seed)
			return NewCore(CoreConfig{
				Name:         "zipfian-hot",
				ReadFraction: 0.95,
				Chooser:      generator.NewZipfian(int64(len(files)), generator.ZipfianTheta),
			}, cluster, files, seed)
		},
	},
	"hotspot-shift": {
		desc: "20% of files receive 80% of accesses, and the hot segment " +
			"migrates a quarter of the keyspace every 10 runs",
		build: func(cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (Workload, error) {
			files = defaultFiles(files, seed)
			return NewCore(CoreConfig{
				Name:         "hotspot-shift",
				ReadFraction: 0.9,
				Chooser:      generator.NewHotspot(0, int64(len(files))-1, 0.2, 0.8),
				ShiftEvery:   10,
				ShiftFrac:    0.25,
			}, cluster, files, seed)
		},
	},
	"write-ingest": {
		desc: "write-heavy ingest at a moving head with latest-skewed " +
			"reads trailing it; a read-mostly analysis phase follows",
		build: func(cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (Workload, error) {
			files = defaultFiles(files, seed)
			return NewCore(CoreConfig{
				Name:         "write-ingest",
				ReadFraction: 0.3,
				Chooser:      generator.NewZipfian(int64(len(files)), generator.ZipfianTheta),
				Ingest:       true,
				Phases: []Phase{
					{StartRun: 30, ReadFraction: 0.9},
				},
			}, cluster, files, seed)
		},
	},
	"diurnal-tenants": {
		desc: "two tenant halves alternate dominance every 8 runs (90% " +
			"share), zipfian within the active tenant",
		build: func(cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (Workload, error) {
			files = defaultFiles(files, seed)
			half := int64(len(files)) / 2
			if half < 1 {
				half = 1
			}
			return NewCore(CoreConfig{
				Name:         "diurnal-tenants",
				ReadFraction: 0.9,
				Chooser:      generator.NewZipfian(half, generator.ZipfianTheta),
				TenantPeriod: 8,
				TenantShare:  0.9,
			}, cluster, files, seed)
		},
	},
	"cold-scan": {
		desc: "sequential full-file sweeps over the whole population " +
			"(99.5% reads, whole-file accesses): no hot set to exploit",
		build: func(cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (Workload, error) {
			files = defaultFiles(files, seed)
			return NewCore(CoreConfig{
				Name:         "cold-scan",
				ReadFraction: 0.995,
				FracLo:       1.0,
				FracHi:       1.0,
				Chooser:      generator.NewCounter(0),
			}, cluster, files, seed)
		},
	},
	"mixed-sizes": {
		desc: "48 files drawn from a small/mid/huge size histogram with " +
			"zipfian popularity: placement must weigh size against heat",
		build: func(cluster *storagesim.Cluster, files []trace.BelleFile, seed int64) (Workload, error) {
			if files == nil {
				var err error
				files, err = mixedSizeFiles(seed)
				if err != nil {
					return nil, err
				}
			}
			return NewCore(CoreConfig{
				Name:         "mixed-sizes",
				ReadFraction: 0.9,
				Chooser:      generator.NewZipfian(int64(len(files)), generator.ZipfianTheta),
			}, cluster, files, seed)
		},
	},
}

// HotShare reports the fraction of accesses falling on the hottest k of
// n ranks under the zipfian head — a helper for distribution-level
// assertions in tests and docs (ζ(k)/ζ(n) at θ).
func HotShare(k, n int64, theta float64) float64 {
	if k > n {
		k = n
	}
	var num, den float64
	for i := int64(0); i < n; i++ {
		t := 1 / math.Pow(float64(i+1), theta)
		den += t
		if i < k {
			num += t
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}
