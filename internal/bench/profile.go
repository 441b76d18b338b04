package bench

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Contention profiling for the bench CLIs: with mutex and block
// profiling enabled, a scaling regression (a new exclusive lock on a hot
// path) shows up as a named lock site in the dump instead of an
// unexplained flat curve.

// StartContentionProfiles turns on mutex profiling when mutexPath is set
// and block profiling when blockPath is set, each recording every event
// (rate 1). The returned function writes each enabled profile to its path
// in pprof format; call it at exit.
func StartContentionProfiles(mutexPath, blockPath string) (write func() error) {
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() error {
		var err error
		if mutexPath != "" {
			err = writeProfile("mutex", mutexPath)
		}
		if blockPath != "" {
			err = errors.Join(err, writeProfile("block", blockPath))
		}
		return err
	}
}

// writeProfile writes the named runtime profile to path in pprof format.
func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("%s profile: %w", name, err)
	}
	return f.Close()
}
