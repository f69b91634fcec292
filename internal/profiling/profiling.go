// Package profiling implements the -cpuprofile and -memprofile flags the
// commands share, so a performance change can start from a profile of the
// exact command line it targets:
//
//	go run ./cmd/geomancy -runs 12 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof -top cpu.out
package profiling

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, unless cpuPath is empty,
// and returns the function that ends it. Stop also writes a heap profile
// to memPath, unless memPath is empty, after a garbage collection so the
// profile reflects live memory at exit. Stop must be called exactly once,
// and before any os.Exit, or the CPU profile is truncated.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeap(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeap(path string) error {
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
