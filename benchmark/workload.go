package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
)

// The benchmark's fixed parallelism: the engine runs on two workers and
// the daemon serves two closed-loop clients, so a shape means the same
// work on any machine. Record nproc beside the result to read it.
const (
	workers = 2
	clients = 2
)

// workloadNames lists the workloads in the order a whole pass runs them.
var workloadNames = []string{"paper", "fleet-steady", "fleet-churn", "fleet-quorum", "serve-mix"}

// opts is one run's command line.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool   // test-sized shapes
	work     string // scratch directory for caches
	out      string // directory the trace is written to
	digests  string // pinned-digest file; "" means the embedded pins
}

// bench is one workload, from set-up through its correctness checks.
type bench interface {
	// setup prepares everything the measured window needs; it is what
	// setup_s times.
	setup() error
	// measure runs operations for d, traced or not, and returns them.
	measure(d time.Duration, traced bool) window
	// layers derives the per-layer metrics from the traced window.
	layers(w window) map[string]float64
	// check re-derives the window's outputs through the public API.
	check()
	// result returns the ledger and the digest of the pinned outputs.
	result() (*ledger, string)
	close()
}

// window is one measured stretch of operations.
type window struct {
	lat   []float64 // per-operation latency, ms
	items float64   // work items completed
	wall  time.Duration
	// first and last bound the window's spans in the tracer.
	first, last int
}

// ledger counts attempted and failed operations and checks, keeping the
// first few failure messages.
type ledger struct {
	attempted, failed int
	failures          []string
}

func (l *ledger) note(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.failures) < 8 {
			l.failures = append(l.failures, err.Error())
		}
	}
}

func (l *ledger) merge(o *ledger) {
	l.attempted += o.attempted
	l.failed += o.failed
	for _, f := range o.failures {
		if len(l.failures) < 8 {
			l.failures = append(l.failures, f)
		}
	}
}

// newBench builds the named workload. tr is nil for untraced runs.
func newBench(o opts, tr *tracer) (bench, error) {
	cfg := core.Config{Seed: o.seed, Reps: 3, Quick: o.tiny}
	if o.tiny {
		cfg.Reps = 1
	}
	// fleet runs scn, or at test size the same scenario shrunk to
	// tinyMachines × tinyMinutes.
	fleet := func(scn grid.Scenario, tinyMachines, tinyMinutes int) bench {
		if o.tiny {
			scn.Machines, scn.Minutes = tinyMachines, tinyMinutes
		}
		return newBatch(o, tr, cfg, []engine.Experiment{
			engine.FleetScenario("fleet", "benchmark fleet", scn),
		}, &scn)
	}
	switch o.workload {
	case "paper":
		// The 18 non-fleet experiments: the detailed hw/hostos/guestos/
		// vmm/bench/core stack, without grid, netsim or serve.
		return newBatch(o, tr, cfg, engine.Default.ByKind(
			engine.KindFigure, engine.KindAblation, engine.KindSensitivity, engine.KindExtension), nil), nil
	case "fleet-steady":
		// The grid fast path: churn off and fifo, so completions settle
		// arithmetically and no host fires per-unit events.
		return fleet(grid.Scenario{Machines: 100_000, Minutes: 480}, 2_000, 30), nil
	case "fleet-churn":
		// The event-driven path: churn, deadline reissue, checkpoint
		// round trips and on-departure migration over netsim.
		return fleet(grid.Scenario{Machines: 12_000, Minutes: 480, Churn: true, Policy: "deadline",
			FaultyFrac: 0.02, Migration: "on-departure", BandwidthMbps: 100}, 600, 30), nil
	case "fleet-quorum":
		// boinc.Project's quorum bookkeeping dominates: replication 2 on
		// one environment, two full population slices.
		return fleet(grid.Scenario{Machines: 1024, Minutes: 120, Churn: true, Policy: "replication",
			Replication: 2, FaultyFrac: 0.02, Envs: []string{"vmplayer"}}, 600, 20), nil
	case "serve-mix":
		return newServeMix(o, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", o.workload, workloadNames)
}

// outcomesDigest hashes what a user reads from a run: every outcome's
// name, rendered table and CSV, in order. It is the digest that is
// pinned.
func outcomesDigest(outs []*engine.Outcome) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintf(h, "%s\n%s\n%s\n", o.Name, o.Render(), o.CSV())
	}
	return hex.EncodeToString(h.Sum(nil))
}
