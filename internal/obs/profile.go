package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// ProfileFlags bundles the standard Go runtime-profiling outputs so every
// cmd/ harness exposes them uniformly. The execution-trace flag is named
// -exectrace (not the conventional -trace) because phftl sim already uses
// -trace for workload selection.
type ProfileFlags struct {
	CPUProfile string
	MemProfile string
	ExecTrace  string
}

// Register installs the -cpuprofile, -memprofile and -exectrace flags on fs.
func (p *ProfileFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&p.ExecTrace, "exectrace", "", "write a runtime execution trace to this file")
}

// Start begins the requested profiles and returns a stop function that ends
// them and writes the heap profile. The stop function is safe to call once;
// callers should defer it immediately.
func (p *ProfileFlags) Start() (stop func() error, err error) {
	var cpuF, traceF *os.File
	if p.CPUProfile != "" {
		cpuF, err = os.Create(p.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
	}
	if p.ExecTrace != "" {
		traceF, err = os.Create(p.ExecTrace)
		if err != nil {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, fmt.Errorf("obs: exectrace: %w", err)
		}
		if err := trace.Start(traceF); err != nil {
			traceF.Close()
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			return nil, fmt.Errorf("obs: exectrace: %w", err)
		}
	}
	memPath := p.MemProfile
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if traceF != nil {
			trace.Stop()
			if err := traceF.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("obs: memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // flush recently-freed objects out of the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("obs: memprofile: %w", err)
			}
		}
		return nil
	}, nil
}
