package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"vmdg/internal/core"
	"vmdg/internal/engine"
)

// engineFlags are the engine options `run`, `report`, `fleet` and
// `sweep` share: the worker pool, the shard cache and its resume
// journal, stderr verbosity, and CPU and heap profiles of the run.
type engineFlags struct {
	workers int
	cache   string
	resume  bool
	verbose bool
	quiet   bool
	cpuprof string
	memprof string
}

// atLeast is an int flag that refuses values below min when parsed, so
// an out-of-range count is a usage error (exit 2) naming the flag,
// rather than a value the engine silently replaces with its default.
type atLeast struct {
	n   *int
	min int
}

// String also runs on a zero atLeast: the flag package renders one to
// tell a default from a set value in help text.
func (v atLeast) String() string {
	if v.n == nil {
		return "0"
	}
	return strconv.Itoa(*v.n)
}

func (v atLeast) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return err.(*strconv.NumError).Err
	}
	if int(n) < v.min {
		return fmt.Errorf("outside the valid range n >= %d", v.min)
	}
	*v.n = int(n)
	return nil
}

// intAtLeast declares an int flag with default def that parses only
// values of at least min. The usage text names the range.
func intAtLeast(fs *flag.FlagSet, p *int, name string, def, min int, usage string) {
	*p = def
	fs.Var(atLeast{p, min}, name, usage)
}

func (f *engineFlags) register(fs *flag.FlagSet) {
	intAtLeast(fs, &f.workers, "workers", 0, 0, "worker pool size, `n` >= 0 (0 = GOMAXPROCS)")
	fs.StringVar(&f.cache, "cache", "", "shard cache directory; 'off' disables (default: the user cache dir)")
	fs.BoolVar(&f.resume, "resume", true, "journal fold progress and resume an interrupted identical run (needs the cache)")
	fs.BoolVar(&f.verbose, "v", false, "log per-shard progress to stderr")
	fs.BoolVar(&f.quiet, "quiet", false, "suppress progress and summary lines on stderr")
	fs.StringVar(&f.cpuprof, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.memprof, "memprofile", "", "write a heap profile to this file when the run ends")
}

// newRunner builds the worker pool the flags describe. Progress and
// summary lines go to stderr so stdout stays bit-identical across
// worker counts and cache states. With resume (the default) and an
// on-disk cache, the runner journals fold progress to the cache's
// manifest store, so a killed run picks up where it folded.
func (f *engineFlags) newRunner() (*engine.Runner, error) {
	r := &engine.Runner{Workers: f.workers}
	switch f.cache {
	case "off":
	case "":
		dir, err := engine.DefaultCacheDir()
		if err != nil {
			return nil, fmt.Errorf("resolving cache dir (use -cache DIR or -cache off): %w", err)
		}
		if r.Cache, err = engine.NewFileCache(dir); err != nil {
			return nil, err
		}
	default:
		var err error
		if r.Cache, err = engine.NewFileCache(f.cache); err != nil {
			return nil, err
		}
	}
	// Keep the on-disk cache inside its retention caps on every run —
	// stale builds' entries never hit again (the key embeds the build
	// fingerprint), so without this the directory only ever grows.
	// Best-effort: a prune failure is at worst future cache misses.
	// Prune runs before the manifest store is handed to the runner, so
	// any journal whose payloads it evicts is truncated first and the
	// run's resume point is already consistent.
	if fc, ok := r.Cache.(*engine.FileCache); ok {
		// Warm replays within this process serve shard payloads from
		// memory instead of re-reading their files; disk stays the
		// durable tier underneath.
		fc.EnableMemTier(engine.DefaultMemTierBytes)
		fc.Prune(engine.DefaultMaxAge, engine.DefaultMaxBytes)
		if f.resume {
			r.Manifests = fc.Manifests()
		}
	}
	if f.verbose {
		r.OnEvent = func(ev engine.Event) {
			switch ev.Kind {
			case engine.EventShardComputed:
				fmt.Fprintf(os.Stderr, "dgrid: ran %s shard %d/%d\n", ev.Experiment, ev.Shard+1, ev.Shards)
			case engine.EventShardCached:
				fmt.Fprintf(os.Stderr, "dgrid: cached %s shard %d/%d\n", ev.Experiment, ev.Shard+1, ev.Shards)
			case engine.EventExperimentMerged:
				fmt.Fprintf(os.Stderr, "dgrid: merged %s\n", ev.Experiment)
			}
		}
	}
	return r, nil
}

// runFlags are the options of `dgrid run` and `dgrid report`: the
// engine flags plus the paper configuration.
type runFlags struct {
	engineFlags
	seed  uint64
	reps  int
	quick bool
}

func (f *runFlags) register(fs *flag.FlagSet) {
	f.engineFlags.register(fs)
	fs.Uint64Var(&f.seed, "seed", 1, "experiment seed (runs are deterministic per seed)")
	intAtLeast(fs, &f.reps, "reps", 3, 1, "measurement repetitions per data point, `n` >= 1")
	fs.BoolVar(&f.quick, "quick", false, "trim workload sizes (faster, noisier)")
}

func (f *runFlags) config() core.Config {
	return core.Config{Seed: f.seed, Reps: f.reps, Quick: f.quick}
}

func summarize(stats engine.Stats) {
	if stats.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "dgrid: resumed from manifest: %d tasks verified and replayed from cache\n",
			stats.Resumed)
	}
	fmt.Fprintf(os.Stderr, "dgrid: %d experiments, %d shards (%d cached, %d computed) in %s\n",
		stats.Experiments, stats.Shards, stats.Hits, stats.Misses, stats.Elapsed.Round(stats.Elapsed/100+1))
	if stats.FlightHits > 0 || stats.FlightShared > 0 {
		fmt.Fprintf(os.Stderr, "dgrid: single-flight: took %d shards from concurrent runs, handed %d to them\n",
			stats.FlightHits, stats.FlightShared)
	}
}

// cmdRun executes experiments and prints their reports in registry
// order.
func cmdRun(args []string) (err error) {
	fs := flag.NewFlagSet("dgrid run", flag.ExitOnError)
	var rf runFlags
	rf.register(fs)
	csv := fs.Bool("csv", false, "emit CSV instead of ASCII charts")
	out := fs.String("out", "", "also write per-experiment JSON and CSV artifacts to this directory")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dgrid run <names|all> [flags]\n\nnames is 'all' or a comma-separated experiment list (see 'dgrid list')")
		fs.PrintDefaults()
	}

	// Accept the selection before or after the flags: `dgrid run fig1
	// -workers 8` and `dgrid run -workers 8 fig1` both work.
	names := ""
	rest := args
	if len(rest) > 0 && rest[0] != "" && rest[0][0] != '-' {
		names, rest = rest[0], rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return err
	}
	switch {
	case fs.NArg() == 0:
	case fs.NArg() == 1 && names == "":
		names = fs.Arg(0)
	default:
		return fmt.Errorf("unexpected arguments %v (give one selection, before or after the flags)", fs.Args())
	}
	if names == "" {
		names = "all"
	}
	stop, err := rf.startProfiles()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	exps, err := engine.Default.Select(names)
	if err != nil {
		return err
	}
	runner, err := rf.newRunner()
	if err != nil {
		return err
	}
	outcomes, stats, err := runner.Run(rf.config(), exps)
	if err != nil {
		return err
	}
	engine.Emit(os.Stdout, outcomes, *csv)
	if *out != "" {
		if err := writeArtifacts(*out, outcomes, rf.quiet); err != nil {
			return err
		}
	}
	if !rf.quiet {
		summarize(stats)
	}
	return nil
}

// writeArtifacts stores each outcome as <dir>/<name>.json (the merged
// payload) and, for experiments with tabular data, <dir>/<name>.csv,
// and says so on stderr unless quiet.
func writeArtifacts(dir string, outcomes []*engine.Outcome, quiet bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, o := range outcomes {
		if err := os.WriteFile(filepath.Join(dir, o.Name+".json"), o.Raw, 0o644); err != nil {
			return err
		}
		if c := o.CSV(); c != "" {
			if err := os.WriteFile(filepath.Join(dir, o.Name+".csv"), []byte(c), 0o644); err != nil {
				return err
			}
		}
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "dgrid: wrote %d artifacts to %s\n", len(outcomes), dir)
	}
	return nil
}

// cmdList prints the experiment catalog.
func cmdList(args []string) error {
	fs := flag.NewFlagSet("dgrid list", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	fmt.Printf("%-14s %-12s %7s  %s\n", "name", "kind", "shards", "title")
	for _, e := range engine.Default.Experiments() {
		fmt.Printf("%-14s %-12s %7d  %s\n", e.Name(), e.Kind(), e.Shards(cfg), e.Title())
	}
	return nil
}

// cmdReport regenerates the paper-vs-measured markdown artifact from
// every registered experiment.
func cmdReport(args []string) (err error) {
	fs := flag.NewFlagSet("dgrid report", flag.ExitOnError)
	var rf runFlags
	rf.register(fs)
	out := fs.String("o", "EXPERIMENTS.md", "output file ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := rf.startProfiles()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	runner, err := rf.newRunner()
	if err != nil {
		return err
	}
	outcomes, stats, err := runner.Run(rf.config(), engine.Default.Experiments())
	if err != nil {
		return err
	}
	md := engine.ExperimentsMarkdown(rf.config(), outcomes)
	if *out == "-" {
		fmt.Print(md)
	} else if err := os.WriteFile(*out, []byte(md), 0o644); err != nil {
		return err
	}
	if !rf.quiet {
		summarize(stats)
	}
	return nil
}
