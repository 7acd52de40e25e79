package main

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts the CPU profile the engine flags ask for and
// returns the function that finishes both profiles: it stops the CPU
// profile, then writes the heap profile. Commands call it right after
// parsing their flags and defer the stop, so the profiles cover the
// whole run and are complete on error returns too. Read them with `go
// tool pprof`.
func (f *engineFlags) startProfiles() (stop func() error, err error) {
	stopCPU, err := startCPUProfile(f.cpuprof)
	if err != nil {
		return nil, err
	}
	return func() error { return errors.Join(stopCPU(), writeHeapProfile(f.memprof)) }, nil
}

// startCPUProfile starts writing a CPU profile to path ("" disables
// profiling) and returns the function that stops it and closes the
// file.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile writes a heap profile to path ("" skips it) after a
// GC, so its in-use samples show what the run still holds at its end;
// its alloc samples (`go tool pprof -sample_index=alloc_space`) cover
// every allocation of the run.
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
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
