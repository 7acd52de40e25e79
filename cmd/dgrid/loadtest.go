package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"vmdg/internal/loadgen"
)

// loadtestOpts is everything `dgrid loadtest` parses from its
// arguments.
type loadtestOpts struct {
	clients  int
	requests int
	specs    int
	sse      float64
	seed     uint64
	retries  int
	addr     string
	cache    string
	workers  int
	maxRuns  int
}

// parseLoadtestArgs parses the loadtest command line.
func parseLoadtestArgs(args []string) (*loadtestOpts, error) {
	fs := flag.NewFlagSet("dgrid loadtest", flag.ContinueOnError)
	clients := fs.Int("clients", 200, "concurrent clients in the fleet")
	requests := fs.Int("requests", 5, "sequential requests per client")
	specs := fs.Int("specs", 8, "distinct specs in the overlapping mix (the cold-shard budget)")
	sse := fs.Float64("sse", 0.5, "fraction of requests streamed as SSE (time-to-first-frame source)")
	seed := fs.Uint64("seed", 1, "client-fleet RNG seed (spec choice, SSE choice, backoff jitter)")
	retries := fs.Int("retries", 100, "429 retry budget per request before it counts as failed")
	addr := fs.String("addr", "", "drive a running daemon at this base URL instead of an in-process one")
	cache := fs.String("cache", "", "in-process daemon's cache dir (default: a fresh temp dir, guaranteeing a cold start)")
	workers := fs.Int("workers", 0, "in-process daemon's worker pool (0 = GOMAXPROCS)")
	maxRuns := fs.Int("max-runs", 0, "in-process daemon's admission bound (0 = 2× workers)")
	quick := fs.Bool("quick", false, "reduced smoke shape: 2 requests/client over a 4-spec mix, unless -requests or -specs is given")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: dgrid loadtest [flags]\n\n"+
			"drive a serve daemon with a fleet of concurrent clients over an overlapping\n"+
			"spec mix, record cold/warm/deduped/rejected latency percentiles and\n"+
			"time-to-first-SSE-frame, and cross-check request accounting against the\n"+
			"daemon's /healthz and /v1/cache counters. by default the daemon is\n"+
			"in-process on a fresh cache; -addr points at a real one (which must be\n"+
			"otherwise idle for the accounting cross-checks to be meaningful)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v (loadtest takes flags only)", fs.Args())
	}
	o := &loadtestOpts{
		clients: *clients, requests: *requests, specs: *specs, sse: *sse,
		seed: *seed, retries: *retries, addr: *addr, cache: *cache,
		workers: *workers, maxRuns: *maxRuns,
	}
	if o.clients < 1 || o.requests < 1 || o.specs < 1 {
		return nil, fmt.Errorf("%w: -clients, -requests, and -specs must be positive", errUsage)
	}
	if o.sse < 0 || o.sse > 1 {
		return nil, fmt.Errorf("%w: -sse %g outside [0, 1]", errUsage, o.sse)
	}
	if o.retries < 0 {
		return nil, fmt.Errorf("%w: -retries must be non-negative", errUsage)
	}
	if *quick {
		given := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if !given["requests"] {
			o.requests = 2
		}
		if !given["specs"] {
			o.specs = 4
		}
	}
	return o, nil
}

// config is the loadgen configuration for these options against base.
// loadgen reads a zero SSEFraction or MaxRetries as its default, so an
// explicit 0 goes over as its negative spelling.
func (o *loadtestOpts) config(base string) loadgen.Config {
	cfg := loadgen.Config{
		BaseURL:     base,
		Clients:     o.clients,
		Requests:    o.requests,
		Specs:       loadgen.DefaultSpecMix(o.specs),
		SSEFraction: o.sse,
		Seed:        o.seed,
		MaxRetries:  o.retries,
	}
	if cfg.SSEFraction == 0 {
		cfg.SSEFraction = -1
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = -1
	}
	return cfg
}

// cmdLoadtest runs the load-generation harness (internal/loadgen)
// against a serve daemon and reports latency percentiles per outcome
// class plus the accounting cross-check verdict. Any failed request or
// accounting mismatch fails the command.
func cmdLoadtest(args []string) error {
	o, err := parseLoadtestArgs(args)
	if err != nil {
		return usageExit(err)
	}

	base := o.addr
	if base == "" {
		dir := o.cache
		if dir == "" {
			tmp, err := os.MkdirTemp("", "dgrid-loadtest-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		url, shutdown, err := loadgen.Local(o.workers, o.maxRuns, dir, nil)
		if err != nil {
			return err
		}
		defer shutdown()
		base = url
	}

	where := "in-process daemon"
	if o.addr != "" {
		where = o.addr
	}
	fmt.Fprintf(os.Stderr, "dgrid: loadtest %d clients × %d requests (%d-spec mix, sse %.2f) against %s\n",
		o.clients, o.requests, o.specs, o.sse, where)

	rep, err := loadgen.Run(context.Background(), o.config(base))
	if err != nil {
		return err
	}
	printLoadReport(rep)
	return rep.Check()
}

// printLoadReport renders the human summary on stderr.
func printLoadReport(r *loadgen.Report) {
	fmt.Fprintf(os.Stderr, "dgrid: loadtest done in %.2fs — %.0f req/s over %d requests (daemon: %d workers, %d max runs)\n",
		r.ElapsedSec, r.RequestsPerSec, r.Requests, r.Workers, r.MaxRuns)
	fmt.Fprintf(os.Stderr, "  %-10s %7s %9s %9s %9s %9s\n", "class", "count", "p50 ms", "p90 ms", "p99 ms", "max ms")
	row := func(name string, s loadgen.Summary) {
		if s.Count == 0 {
			fmt.Fprintf(os.Stderr, "  %-10s %7d %9s %9s %9s %9s\n", name, 0, "-", "-", "-", "-")
			return
		}
		fmt.Fprintf(os.Stderr, "  %-10s %7d %9.2f %9.2f %9.2f %9.2f\n", name, s.Count, s.P50Ms, s.P90Ms, s.P99Ms, s.MaxMs)
	}
	row("cold", r.Cold)
	row("warm", r.Warm)
	row("deduped", r.Deduped)
	row("rejected", r.Rejected)
	row("ttff(sse)", r.TTFF)
	fmt.Fprintf(os.Stderr, "  429s %d, retries %d, failed %d\n", r.Rejected429, r.Retries, r.Failed)
	a := r.Accounting
	verdict := "ok"
	if err := r.Check(); err != nil {
		verdict = "MISMATCH"
	}
	fmt.Fprintf(os.Stderr,
		"  accounting [%s]: Σmisses %d vs %d new cache entries; admitted %d = completed %d + canceled %d + failed %d; rejected %d; runs drained %v, locks drained %v\n",
		verdict, a.SumMisses, a.NewCacheEntries, a.Admitted, a.Completed, a.Canceled, a.FailedRuns,
		a.Rejected, a.ActiveRunsDrained, a.RunLocksDrained)
}
