package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"vmdg/internal/engine"
	"vmdg/internal/serve"
)

// serveOpts is everything `dgrid serve` parses from its arguments.
type serveOpts struct {
	addr    string
	cache   string
	workers int
	maxRuns int
	drain   time.Duration
	resume  bool
}

// Connection timeouts of the daemon's listener: a client has
// serveReadHeaderTimeout to send its request headers, and a keep-alive
// connection idle for serveIdleTimeout is closed. There is no write
// timeout, since it would cut the SSE stream of a long sweep.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// newHTTPServer serves h on addr with the connection timeouts above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
}

// parseServeArgs parses the serve command line.
func parseServeArgs(args []string) (*serveOpts, error) {
	fs := flag.NewFlagSet("dgrid serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8787", "listen address")
	cache := fs.String("cache", "", "shard cache directory shared by every request (default: the user cache dir)")
	workers := fs.Int("workers", 0, "shared worker pool size bounding the whole daemon (0 = GOMAXPROCS)")
	maxRuns := fs.Int("max-runs", 0, "concurrent sweep runs admitted; excess requests get 429 (0 = 2× workers)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for active runs on SIGTERM/SIGINT")
	resume := fs.Bool("resume", true, "journal every run's fold so a killed daemon resumes interrupted sweeps")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: dgrid serve [flags]\n\n"+
			"serve sweeps over HTTP: POST a grid.Spec to /v1/sweeps (SSE progress with\n"+
			"Accept: text/event-stream), GET /healthz and /v1/cache for daemon state.\n"+
			"all requests share one worker pool, shard cache, and single-flight group")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %v (serve takes flags only)", fs.Args())
	}
	if *cache == "off" {
		return nil, fmt.Errorf("-cache off: the daemon's whole point is a shared cache; give it a directory")
	}
	return &serveOpts{
		addr:    *addr,
		cache:   *cache,
		workers: *workers,
		maxRuns: *maxRuns,
		drain:   *drain,
		resume:  *resume,
	}, nil
}

// cmdServe runs the sweep daemon: one shared worker pool, one shared
// mem-tiered shard cache, and one single-flight group under an HTTP
// surface, so many clients drive the simulator concurrently at ~1× the
// work. SIGTERM/SIGINT stops accepting requests and drains active runs
// within the -drain budget — a run cut off by the deadline leaves its
// fold journal resumable, like any killed sweep.
func cmdServe(args []string) error {
	o, err := parseServeArgs(args)
	if err != nil {
		return usageExit(err)
	}

	dir := o.cache
	if dir == "" {
		if dir, err = engine.DefaultCacheDir(); err != nil {
			return fmt.Errorf("resolving cache dir (use -cache DIR): %w", err)
		}
	}
	fc, err := engine.NewFileCache(dir)
	if err != nil {
		return err
	}
	fc.EnableMemTier(engine.DefaultMemTierBytes)
	fc.Prune(engine.DefaultMaxAge, engine.DefaultMaxBytes)

	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	s := &serve.Server{
		Pool:    engine.NewPool(o.workers),
		Cache:   fc,
		MaxRuns: o.maxRuns,
		Resume:  o.resume,
		Log:     log,
	}
	srv := newHTTPServer(o.addr, s.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Info("dgrid serve listening",
		"addr", o.addr, "cache", fc.Dir(), "workers", s.Pool.Workers(),
		"version", serve.Version(), "go", runtime.Version())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		log.Info("draining", "budget", o.drain.String())
		dctx, cancel := context.WithTimeout(context.Background(), o.drain)
		defer cancel()
		// Shutdown stops the listener and waits for in-flight requests;
		// it does not cancel their contexts, so active runs complete
		// (and seal their manifest journals) unless the budget expires.
		if err := srv.Shutdown(dctx); err != nil {
			log.Warn("drain budget expired; interrupted folds stay resumable", "err", err)
			return nil
		}
		log.Info("drained")
		return nil
	}
}
