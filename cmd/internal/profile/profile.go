package profile

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpuPath, when it is not empty, and
// returns a function that stops it and writes an allocation profile to
// memPath, when that is not empty. Only the first call of stop acts, so a
// command can both defer it and call it before exiting early.
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
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeAllocs(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeAllocs writes the allocation profile (every allocation since the
// program started, and the heap still live) to path.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // bring the live-heap figures up to date
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
