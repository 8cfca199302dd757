package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling if cpuPath is non-empty and returns a stop
// function that finishes the CPU profile and, if memPath is non-empty,
// writes a heap profile (after a GC, so it reflects live steady-state
// memory rather than collectable garbage). Either path may be empty; the
// stop function is always non-nil and safe to call once.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: close cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("prof: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialise the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("prof: write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
