// Command dgrid is the reproduction's experiment driver: a subcommand
// CLI over the parallel experiment engine (internal/engine) plus the
// original desktop-grid fleet simulation.
//
//	dgrid list                      # catalog of registered experiments
//	dgrid run all                   # every experiment, ASCII + paper bands
//	dgrid run fig4 -workers 8       # one figure across 8 workers
//	dgrid run fig1,fig3 -csv        # machine-readable output
//	dgrid run all -out artifacts/   # also write per-experiment JSON/CSV
//	dgrid report -o EXPERIMENTS.md  # paper-vs-measured markdown artifact
//	dgrid fleet -machines 10000 -churn -policy deadline
//	                                # churn-aware volunteer-fleet simulation
//	dgrid fleet -machines 1000000 -minutes 480
//	                                # million-host fleet, a working day
//	dgrid fleet -machines 10000 -churn -migration on-departure -bandwidth 100
//	                                # churned-off hosts migrate their VM
//	                                # checkpoints over the modeled network
//	dgrid sweep -spec examples/sweep.json
//	                                # declarative scenario sweep: the spec's
//	                                # multi-value axes expand into a cached,
//	                                # axis-keyed cartesian grid of fleets
//	dgrid sweep -set policy=fifo,deadline -set machines=256..1024*2
//	                                # the same, from axis overrides alone
//	dgrid cache -prune              # shard-cache retention maintenance
//	dgrid cache                     # cache contents + resumable manifests
//	dgrid serve -addr :8787         # sweep daemon: POST /v1/sweeps, shared
//	                                # pool/cache/single-flight across clients
//	dgrid loadtest -clients 200     # drive a daemon with a client fleet:
//	                                # latency percentiles per outcome class
//	                                # and accounting cross-checks
//	dgrid version                   # build identity (matches /healthz)
//
// Experiment runs are deterministic per seed and independent of the
// worker count: `dgrid run all -workers 1` and `-workers 8` emit
// bit-identical output. Completed shards are cached on disk (keyed by
// experiment × seed × parameters), so repeated invocations skip work
// already done; -cache off disables this.
//
// Runs over the on-disk cache are also durable: the fold journals its
// progress to a manifest alongside the cache, so a crashed or killed
// sweep re-run with the same arguments resumes at the first unfolded
// shard and replays the rest from cache — byte-identical to an
// uninterrupted run. -resume=false opts out.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
)

func main() {
	// Fleet simulations are batch computations whose live heap is small
	// (streamed merges, pooled events) but whose allocation rate is
	// high; the default GOGC spends a measurable slice of every run in
	// the collector. Trade a little headroom for throughput unless the
	// operator set their own policy.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch cmd := os.Args[1]; cmd {
	case "run":
		err = cmdRun(os.Args[2:])
	case "list":
		err = cmdList(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "cache":
		err = cmdCache(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadtest":
		err = cmdLoadtest(os.Args[2:])
	case "version":
		err = cmdVersion(os.Args[2:])
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "dgrid: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgrid:", err)
		os.Exit(1)
	}
}

// errUsage tags a malformed command line. The parse functions use
// flag.ContinueOnError so they stay testable; usageExit restores the
// CLI's historical exit-code contract (2 for usage errors, 1 for run
// failures) that flag.ExitOnError used to provide.
var errUsage = errors.New("usage error")

// usageExit converts a parse error into the command's return: help is
// not an error, a usage error exits 2 on the spot (the flag package
// already printed it), and anything else propagates as a run failure.
func usageExit(err error) error {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return nil
	case errors.Is(err, errUsage):
		os.Exit(2)
		return nil // unreachable
	default:
		return err
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: dgrid <command> [flags]

commands:
  list             list every registered experiment
  run <names|all>  run experiments (comma-separated names) on a worker pool
  report           regenerate the paper-vs-measured EXPERIMENTS.md tables
  fleet            simulate a churn-aware volunteer desktop-grid fleet
  sweep            run a declarative scenario sweep (spec file / -set axes)
  cache            show, prune, or clear the on-disk shard cache
  serve            serve sweeps over HTTP from one shared pool and cache
  loadtest         drive a serve daemon with a concurrent client fleet
  version          print the build identity (module version, VCS revision)
  help             show this message

run 'dgrid <command> -h' for the command's flags
`)
}
