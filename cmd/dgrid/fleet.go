package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
)

// outFlags are the output switches of `dgrid fleet` and `dgrid sweep`.
type outFlags struct {
	jsonOut bool
	csv     bool
	out     string
}

// register declares the switches; name stems the artifact files.
func (f *outFlags) register(fs *flag.FlagSet, name string) {
	fs.BoolVar(&f.jsonOut, "json", false, "emit the merged JSON payload instead of the table")
	fs.BoolVar(&f.csv, "csv", false, "emit CSV instead of the table")
	fs.StringVar(&f.out, "out", "", "also write "+name+".json and "+name+".csv artifacts to this directory")
}

// fleetOpts is everything `dgrid fleet` parses from its arguments: the
// single validated scenario plus the runner and output switches.
// parseFleetArgs fills it, so the whole command line is testable
// without executing a fleet.
type fleetOpts struct {
	engineFlags
	outFlags
	scn   grid.Scenario
	seed  uint64
	quick bool
}

// parseFleetArgs parses and validates the fleet command line. Each
// axis flag is bound to the one value of its axis in a normalized spec,
// so a flag's default is what an unset axis runs and the help text can
// never drift from it (the spec layer owns the seed and faulty-fraction
// defaults that Scenario.Normalize cannot express).
func parseFleetArgs(args []string) (*fleetOpts, error) {
	sp := grid.Spec{}.Normalize()
	o := &fleetOpts{}
	fs := flag.NewFlagSet("dgrid fleet", flag.ContinueOnError)
	o.engineFlags.register(fs)
	o.outFlags.register(fs, "fleet")
	fs.IntVar(&sp.Machines[0], "machines", sp.Machines[0], "volunteer machines in the fleet")
	fs.IntVar(&sp.Minutes[0], "minutes", sp.Minutes[0], "virtual minutes to simulate")
	env := fs.String("env", "", "single VM environment (default: the paper's four)")
	fs.Uint64Var(&o.seed, "seed", sp.Seed, "simulation seed (runs are deterministic per seed)")
	fs.BoolVar(&sp.Churn[0], "churn", sp.Churn[0],
		"enable volunteer availability churn (power on/off sessions)")
	fs.StringVar(&sp.Policy[0], "policy", sp.Policy[0],
		"scheduling policy: "+strings.Join(grid.Policies(), ", "))
	fs.IntVar(&sp.Replication[0], "replication", sp.Replication[0], "quorum size (replication policy)")
	fs.Float64Var(&sp.DeadlineMin[0], "deadline", sp.DeadlineMin[0],
		"work-unit deadline in virtual minutes (deadline policy)")
	fs.Float64Var(&sp.FaultyFrac[0], "faulty", sp.FaultyFrac[0], "fraction of hosts returning corrupted results")
	fs.StringVar(&sp.Migration[0], "migration", sp.Migration[0],
		"checkpoint migration policy: "+strings.Join(grid.MigrationPolicies(), ", "))
	fs.Float64Var(&sp.Bandwidth[0], "bandwidth", sp.Bandwidth[0],
		"server frontend transfer capacity per population slice, Mbit/s (migration policies)")
	fs.BoolVar(&o.quick, "quick", false, "trim calibration windows (faster, noisier)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		// Parse already printed the message and usage to stderr.
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v (fleet takes flags only, e.g. -machines 10000)", fs.Args())
	}
	if err := validateFleetFlags(sp.Machines[0], sp.Minutes[0], sp.Replication[0], sp.Policy[0]); err != nil {
		return nil, err
	}

	sp.Seed, sp.Quick = o.seed, o.quick
	if *env != "" {
		sp.Envs = []string{*env}
	}
	// Spec validation covers what scenario validation did — unknown
	// policies and environments with the valid name lists, oversized
	// populations/horizons, replication beyond the population — plus
	// explicit non-positive values that normalization would otherwise
	// silently replace with defaults.
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	pts, err := sp.Points()
	if err != nil {
		return nil, err
	}
	o.scn = pts[0].Scenario
	return o, nil
}

// cmdFleet simulates the paper's motivating scenario at population
// scale: a desktop grid of volunteer machines (heterogeneous hardware,
// owners arriving and leaving) donating cycles to an
// Einstein@home-style project through sandboxed VMs, under a chosen
// server scheduling policy — and, when -migration is set, moving
// checkpoints of departed hosts to new volunteers over the modeled
// network. The command is a thin adapter over grid.Spec — each flag
// pins one spec axis to a single value — so a fleet run is exactly a
// one-point sweep: same validation, same cache scoping, same engine
// path, and `dgrid sweep -set axis=...` widens any of these flags into
// a comparison without re-running this point.
func cmdFleet(args []string) error {
	o, err := parseFleetArgs(args)
	if err != nil {
		return usageExit(err)
	}
	// The config takes the flag values directly (not the normalized
	// spec's): an explicit -seed 0 runs seed 0, as it always has —
	// only in spec *files* does an absent seed mean grid.DefaultSeed.
	cfg := core.Config{Seed: o.seed, Quick: o.quick}
	exp := engine.FleetScenario("fleet", "command-line fleet scenario", o.scn)
	return runFleetExperiment("fleet", &o.engineFlags, &o.outFlags, cfg, exp)
}

// runFleetExperiment is the body `dgrid fleet` and `dgrid sweep` share:
// it runs exp (named what in progress lines) under the engine flags and
// prints its one outcome as the output flags ask.
func runFleetExperiment(what string, ef *engineFlags, of *outFlags, cfg core.Config, exp engine.Experiment) (err error) {
	stop, err := ef.startProfiles()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	runner, err := ef.newRunner()
	if err != nil {
		return err
	}
	if !ef.verbose && !ef.quiet {
		runner.OnEvent = progressLine(what)
	}
	outcomes, stats, err := runner.Run(cfg, []engine.Experiment{exp})
	if err != nil {
		return err
	}
	res := outcomes[0]
	switch {
	case of.jsonOut:
		os.Stdout.Write(append(res.Raw, '\n'))
	case of.csv:
		fmt.Print(res.CSV())
	default:
		fmt.Println(res.Render())
	}
	if of.out != "" {
		if err := writeArtifacts(of.out, outcomes, ef.quiet); err != nil {
			return err
		}
	}
	if !ef.quiet {
		summarize(stats)
	}
	return nil
}

// validateFleetFlags rejects out-of-range flag values before scenario
// normalization can paper over them, with messages that state the valid
// range. The replication bound applies only to the replication policy —
// the flag's default is inert elsewhere. Everything else — unknown
// policies, migration policies, environments, non-positive bandwidth,
// the upper bounds re-checked after normalization — is Spec.Validate's
// job; the flags feed it unmodified.
func validateFleetFlags(machines, minutes, replication int, policy string) error {
	if machines < 1 || machines > grid.MaxMachines {
		return fmt.Errorf("-machines %d outside the valid range [1, %d]", machines, grid.MaxMachines)
	}
	if minutes < 1 || minutes > grid.MaxMinutes {
		return fmt.Errorf("-minutes %d outside the valid range [1, %d]", minutes, grid.MaxMinutes)
	}
	if policy == "replication" && (replication < 1 || replication > machines) {
		return fmt.Errorf("-replication %d outside the valid range [1, %d] (cannot exceed -machines)", replication, machines)
	}
	return nil
}

// progressLine returns an OnEvent hook that keeps one stderr line
// updated while a big run computes. Output is throttled (~10 Hz) and
// goes to stderr only, so stdout stays bit-identical across worker
// counts; the line is erased once the last task folds.
func progressLine(what string) func(engine.Event) {
	var last time.Time
	return func(ev engine.Event) {
		if ev.Kind == engine.EventExperimentMerged {
			return
		}
		done, total := ev.Done, ev.Total
		if total < 32 {
			return // small runs finish before a line is worth drawing
		}
		now := time.Now()
		if done < total && now.Sub(last) < 100*time.Millisecond {
			return
		}
		last = now
		if done < total {
			fmt.Fprintf(os.Stderr, "\rdgrid: %s %d/%d shards", what, done, total)
		} else {
			fmt.Fprintf(os.Stderr, "\r%*s\r", len(what)+len("dgrid:  / shards")+14, "")
		}
	}
}
