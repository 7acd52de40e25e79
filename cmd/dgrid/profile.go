package main

import (
	"os"
	"runtime/pprof"
)

// startCPUProfile starts writing a CPU profile to path ("" disables
// profiling) and returns the function that stops it and closes the
// file. Commands call it right after parsing their flags and defer the
// stop, so a profile covers the whole run and is complete on error
// returns too. Read it with `go tool pprof`.
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
