package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles is a command's -cpuprofile and -memprofile flags: a CPU
// profile of the whole run and an allocation profile written as it
// ends, both readable with `go tool pprof`.
type Profiles struct {
	cpuPath, memPath string
	cpu              *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on the command
// line; call it before flag.Parse.
func ProfileFlags() *Profiles {
	p := &Profiles{}
	flag.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&p.memPath, "memprofile", "", "write an allocation profile to this file as the run ends")
	return p
}

// Start starts the CPU profile, if one was asked for. Every return
// after it must pass through Stop, os.Exit included: a profile that is
// not stopped is never written out.
func (p *Profiles) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpu = f
	return nil
}

// Stop ends the CPU profile and writes the allocation profile, if they
// were asked for.
func (p *Profiles) Stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		errs = append(errs, p.cpu.Close())
		p.cpu = nil
	}
	if p.memPath != "" {
		errs = append(errs, writeAllocs(p.memPath))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	return nil
}

// writeAllocs writes the allocation profile, every allocation since
// the program started, up to date as of a collection.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
