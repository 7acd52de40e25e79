package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
)

// multiFlag collects a repeatable string flag (-set a=1 -set b=2).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// sweepOpts is everything `dgrid sweep` parses from its arguments: the
// normalized, validated spec plus the runner and output switches.
type sweepOpts struct {
	engineFlags
	outFlags
	spec grid.Spec
}

// parseSweepArgs parses the sweep command line into a validated spec,
// in grid.ResolveSpec's precedence: the -spec file (if any) first, then
// -set overrides in order, then the -seed/-quick scalars.
func parseSweepArgs(args []string) (*sweepOpts, error) {
	o := &sweepOpts{}
	fs := flag.NewFlagSet("dgrid sweep", flag.ContinueOnError)
	o.engineFlags.register(fs)
	o.outFlags.register(fs, "sweep")
	specPath := fs.String("spec", "", "sweep spec file (JSON; see examples/sweep.json)")
	var sets multiFlag
	fs.Var(&sets, "set", "override a spec axis, e.g. -set policy=fifo,deadline (repeatable; axes: "+
		strings.Join(grid.AxisNames(), ", ")+"; scalars: seed, quick, envs, name)")
	seed := fs.Uint64("seed", 0, "override the spec's seed (0: use the spec's)")
	quick := fs.Bool("quick", false, "trim calibration windows on every point (faster, noisier)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: dgrid sweep [-spec file.json] [-set axis=v1,v2,...] [flags]\n\n"+
			"a spec describes a family of fleet scenarios; every multi-value axis is swept\n"+
			"and the cartesian grid runs as one cached, worker-count-invariant experiment")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		// Parse already printed the message and usage to stderr.
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v (sweep takes flags only)", fs.Args())
	}

	var doc []byte
	if *specPath != "" {
		var err error
		if doc, err = os.ReadFile(*specPath); err != nil {
			return nil, err
		}
	}
	sp, err := grid.ResolveSpec(doc, sets, *seed, *quick)
	if err != nil {
		return nil, err
	}
	o.spec = sp
	return o, nil
}

// cmdSweep runs a declarative scenario sweep: a grid.Spec (from a JSON
// file, -set overrides, or both) expands into its cartesian grid of
// scenarios, every point runs through the engine's worker pool and
// shard cache, and the output is one merged table/CSV/JSON keyed by
// the swept axis values. Each point is its own cache scope, so
// re-running a sweep with one axis widened simulates only the new
// points.
func cmdSweep(args []string) error {
	o, err := parseSweepArgs(args)
	if err != nil {
		return usageExit(err)
	}
	sp := o.spec
	exp, err := engine.NewSweep("sweep", "command-line scenario sweep", sp)
	if err != nil {
		return err
	}
	if axes := sp.SweptAxes(); len(axes) > 0 && !o.quiet {
		fmt.Fprintf(os.Stderr, "dgrid: sweeping %d points over %s\n", sp.NPoints(), strings.Join(axes, " × "))
	}
	// The spec governs seed and quick: copy them into the run config
	// so cache keys and scenario resolution agree.
	cfg := core.Config{Seed: sp.Seed, Quick: sp.Quick}
	return runFleetExperiment("sweep", &o.engineFlags, &o.outFlags, cfg, exp)
}
