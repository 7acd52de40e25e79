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
	spec    grid.Spec
	workers int
	cache   string
	resume  bool
	jsonOut bool
	csv     bool
	out     string
	verbose bool
	quiet   bool
	cpuprof string
}

// parseSweepArgs parses the sweep command line into a validated spec:
// the -spec file (if any) first, then -set overrides in order, then
// the -seed/-quick scalars.
func parseSweepArgs(args []string) (*sweepOpts, error) {
	fs := flag.NewFlagSet("dgrid sweep", flag.ContinueOnError)
	specPath := fs.String("spec", "", "sweep spec file (JSON; see examples/sweep.json)")
	var sets multiFlag
	fs.Var(&sets, "set", "override a spec axis, e.g. -set policy=fifo,deadline (repeatable; axes: "+
		strings.Join(grid.AxisNames(), ", ")+"; scalars: seed, quick, envs, name)")
	seed := fs.Uint64("seed", 0, "override the spec's seed (0: use the spec's)")
	quick := fs.Bool("quick", false, "trim calibration windows on every point (faster, noisier)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	cache := fs.String("cache", "", "shard cache directory; 'off' disables (default: the user cache dir)")
	resume := fs.Bool("resume", true, "journal fold progress and resume an interrupted identical sweep (needs the cache)")
	jsonOut := fs.Bool("json", false, "emit the merged JSON payload instead of the table")
	csv := fs.Bool("csv", false, "emit CSV instead of the table")
	out := fs.String("out", "", "also write sweep.json and sweep.csv artifacts to this directory")
	verbose := fs.Bool("v", false, "log per-shard progress to stderr")
	quiet := fs.Bool("quiet", false, "suppress progress and summary lines on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
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

	sp := grid.Spec{Version: grid.SpecVersion}
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return nil, err
		}
		if sp, err = grid.ParseSpec(data); err != nil {
			return nil, err
		}
	}
	for _, assign := range sets {
		if err := sp.Set(assign); err != nil {
			return nil, err
		}
	}
	if *seed != 0 {
		sp.Seed = *seed
	}
	if *quick {
		sp.Quick = true
	}
	sp = sp.Normalize()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sweepOpts{
		spec:    sp,
		workers: *workers,
		cache:   *cache,
		resume:  *resume,
		jsonOut: *jsonOut,
		csv:     *csv,
		out:     *out,
		verbose: *verbose,
		quiet:   *quiet,
		cpuprof: *cpuprofile,
	}, nil
}

// cmdSweep runs a declarative scenario sweep: a grid.Spec (from a JSON
// file, -set overrides, or both) expands into its cartesian grid of
// scenarios, every point runs through the engine's worker pool and
// shard cache, and the output is one merged table/CSV/JSON keyed by
// the swept axis values. Each point is its own cache scope, so
// re-running a sweep with one axis widened simulates only the new
// points.
func cmdSweep(args []string) (err error) {
	o, err := parseSweepArgs(args)
	if err != nil {
		return usageExit(err)
	}
	stop, err := startCPUProfile(o.cpuprof)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	sp := o.spec
	exp, err := engine.NewSweep("sweep", "command-line scenario sweep", sp)
	if err != nil {
		return err
	}
	runner, err := newRunner(o.workers, o.cache, o.resume, o.verbose)
	if err != nil {
		return err
	}
	if !o.verbose && !o.quiet {
		runner.OnEvent = progressLine("sweep")
	}
	// The spec governs seed and quick: copy them into the run config
	// so cache keys and scenario resolution agree.
	cfg := core.Config{Seed: sp.Seed, Quick: sp.Quick}
	if axes := sp.SweptAxes(); len(axes) > 0 && !o.quiet {
		fmt.Fprintf(os.Stderr, "dgrid: sweeping %d points over %s\n", sp.NPoints(), strings.Join(axes, " × "))
	}
	outcomes, stats, err := runner.Run(cfg, []engine.Experiment{exp})
	if err != nil {
		return err
	}
	res := outcomes[0]
	switch {
	case o.jsonOut:
		os.Stdout.Write(append(res.Raw, '\n'))
	case o.csv:
		fmt.Print(res.CSV())
	default:
		fmt.Println(res.Render())
	}
	if o.out != "" {
		if err := writeArtifacts(o.out, outcomes); err != nil {
			return err
		}
	}
	if !o.quiet {
		summarize(stats)
	}
	return nil
}
