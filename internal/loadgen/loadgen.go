// Package loadgen is the serve daemon's load-generation harness: a
// self-contained fleet of concurrent HTTP clients that drives POST
// /v1/sweeps with an overlapping spec mix — so the cold, warm-cache,
// and single-flight-deduped paths are all exercised — while recording
// end-to-end latency, time-to-first-SSE-frame, and 429 backoff retries
// into mergeable log-linear histograms.
//
// The harness does not trust its own bookkeeping: after the fleet
// drains it cross-checks the client-side tallies against the daemon's
// operational surface. The contract it enforces:
//
//   - Σ misses over every successful response == new /v1/cache entries
//     (the single-flight exactly-once guarantee, observed end to end);
//   - /healthz active_runs drains to 0 and /v1/cache active_runs
//     (manifest run locks) drains to 0 — no stale locks;
//   - the daemon's cumulative counters reconcile: Δadmitted ==
//     Δcompleted + Δcanceled + Δfailed, Δcompleted == client successes,
//     and Δrejected == the 429s the clients saw.
//
// Counter deltas (not absolutes) are compared, so the harness can also
// point at a long-lived daemon — provided no other tenant is driving
// it during the measurement.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmdg/internal/serve"
)

// Config shapes one load run. BaseURL is required; zero values
// elsewhere mean the defaults noted per field.
type Config struct {
	// BaseURL is the daemon under test ("http://127.0.0.1:8787").
	BaseURL string
	// Clients is the concurrent client count (default 200). All
	// clients are released on one barrier, so the daemon sees the full
	// fleet at once.
	Clients int
	// Requests each client issues sequentially (default 5).
	Requests int
	// Specs is the overlapping mix clients draw from uniformly; with
	// len(Specs) << Clients the same key space is requested many times
	// over, which is what makes the warm and deduped classes dominate.
	// Default: DefaultSpecMix(8).
	Specs []string
	// SSEFraction of requests stream (Accept: text/event-stream) and
	// record time-to-first-frame; the rest take the buffered path.
	// Default 0.5; set negative for 0.
	SSEFraction float64
	// Seed drives every client's RNG (spec choice, SSE choice, backoff
	// jitter); the request schedule is reproducible even though the
	// measured latencies are not. Default 1.
	Seed uint64
	// MaxRetries bounds one request's 429 retries before it counts as
	// failed (default 100 — a saturated daemon is the expected state
	// under this harness, so clients are patient); set negative for 0,
	// which fails a request on its first 429.
	MaxRetries int
	// BackoffScale multiplies every Retry-After sleep (default 1.0);
	// tests compress waiting, the CLI never sets it.
	BackoffScale float64
	// DrainTimeout bounds the post-run wait for active_runs and the
	// daemon counters to settle (default 30s).
	DrainTimeout time.Duration
}

func (cfg Config) withDefaults() Config {
	if cfg.Clients <= 0 {
		cfg.Clients = 200
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 5
	}
	if len(cfg.Specs) == 0 {
		cfg.Specs = DefaultSpecMix(8)
	}
	if cfg.SSEFraction == 0 {
		cfg.SSEFraction = 0.5
	} else if cfg.SSEFraction < 0 {
		cfg.SSEFraction = 0
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 100
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BackoffScale <= 0 {
		cfg.BackoffScale = 1.0
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	return cfg
}

// DefaultSpecMix builds n one-point, one-shard quick scenarios that
// differ only in population size. Distinct specs share no cache keys,
// so n is exactly the cold-shard budget of a fresh-cache run; every
// repeat lands warm or deduped.
func DefaultSpecMix(n int) []string {
	if n <= 0 {
		n = 8
	}
	specs := make([]string, n)
	for i := range specs {
		specs[i] = fmt.Sprintf(
			`{"version":1,"quick":true,"envs":["vmplayer"],"machines":[%d],"minutes":[30],"churn":[true],"policy":["fifo"]}`,
			60+15*i)
	}
	return specs
}

// Outcome classes. A request that saw at least one 429 is "rejected"
// (its latency includes the backoff it was told to take); otherwise
// the daemon's own per-run stats classify it: computing any shard is
// "cold", receiving a shard from another in-flight run is "deduped",
// and a pure cache replay is "warm".
const (
	ClassCold     = "cold"
	ClassWarm     = "warm"
	ClassDeduped  = "deduped"
	ClassRejected = "rejected"
)

func classify(sawReject bool, st serve.RunStats) string {
	switch {
	case sawReject:
		return ClassRejected
	case st.Misses > 0:
		return ClassCold
	case st.FlightHits > 0:
		return ClassDeduped
	default:
		return ClassWarm
	}
}

// Report is one load run's measurement: latency per outcome class,
// the failure and retry tallies, and the accounting cross-check that
// Check judges.
type Report struct {
	Clients  int `json:"clients"`
	Requests int `json:"requests"`
	// Workers and MaxRuns are the daemon's, read from /healthz.
	Workers int `json:"workers"`
	MaxRuns int `json:"max_runs"`

	ElapsedSec     float64 `json:"elapsed_sec"`
	RequestsPerSec float64 `json:"requests_per_sec"`

	// Failed counts requests that never succeeded (transport errors,
	// non-200/429 answers, exhausted retries, artifact mismatches);
	// the acceptance bar is exactly 0.
	Failed         int      `json:"failed"`
	FailureSamples []string `json:"failure_samples,omitempty"`
	// Rejected429 counts 429 answers; Retries counts the retry sleeps
	// taken (== Rejected429 when every rejection was retried).
	Rejected429 int `json:"rejected_429"`
	Retries     int `json:"retries"`

	// End-to-end latency percentiles per outcome class.
	Cold     Summary `json:"cold"`
	Warm     Summary `json:"warm"`
	Deduped  Summary `json:"deduped"`
	Rejected Summary `json:"rejected"`
	// TTFF is time-to-first-SSE-frame over every streamed request.
	TTFF Summary `json:"ttff"`

	Accounting Accounting `json:"accounting"`
}

// Accounting is the client-vs-daemon cross-check block; see the
// package comment for the contract.
type Accounting struct {
	SumMisses       int  `json:"sum_misses"`
	NewCacheEntries int  `json:"new_cache_entries"`
	MissesMatch     bool `json:"misses_match"`
	// ActiveRunsDrained: /healthz active_runs returned to 0 within the
	// drain timeout. RunLocksDrained: /v1/cache active_runs (manifest
	// run locks) did too — no stale lock survived the load.
	ActiveRunsDrained bool `json:"active_runs_drained"`
	RunLocksDrained   bool `json:"run_locks_drained"`
	// Daemon counter deltas over the run.
	Admitted   uint64 `json:"admitted"`
	Completed  uint64 `json:"completed"`
	Canceled   uint64 `json:"canceled"`
	FailedRuns uint64 `json:"failed_runs"`
	Rejected   uint64 `json:"rejected"`
	// CountersConsistent: admitted == completed+canceled+failed,
	// completed == client-side successes, rejected == client-side 429s.
	CountersConsistent bool `json:"counters_consistent"`
}

// Check is the correctness contract: any failed request or any
// accounting mismatch is an error. Latency is not judged here.
func (r *Report) Check() error {
	if r.Failed > 0 {
		return fmt.Errorf("loadtest: %d of %d requests failed (first: %s)",
			r.Failed, r.Requests, strings.Join(r.FailureSamples, "; "))
	}
	a := r.Accounting
	if !a.MissesMatch {
		return fmt.Errorf("loadtest: accounting mismatch: Σmisses %d != %d new cache entries — the single-flight exactly-once contract broke under load",
			a.SumMisses, a.NewCacheEntries)
	}
	if !a.ActiveRunsDrained {
		return fmt.Errorf("loadtest: active_runs did not drain to 0")
	}
	if !a.RunLocksDrained {
		return fmt.Errorf("loadtest: manifest run locks did not drain to 0 (stale lock)")
	}
	if !a.CountersConsistent {
		return fmt.Errorf("loadtest: daemon counters inconsistent: Δadmitted %d, Δcompleted %d, Δcanceled %d, Δfailed %d, Δrejected %d vs client 429s %d",
			a.Admitted, a.Completed, a.Canceled, a.FailedRuns, a.Rejected, r.Rejected429)
	}
	return nil
}

// clientTally is one client's private measurement state, merged after
// the fleet drains; nothing here is shared while clients run.
type clientTally struct {
	hists     map[string]*Hist // class → end-to-end latency
	ttff      Hist
	rejected  int
	retries   int
	misses    int
	successes int
	failures  []string
}

func newTally() *clientTally {
	return &clientTally{hists: map[string]*Hist{
		ClassCold: {}, ClassWarm: {}, ClassDeduped: {}, ClassRejected: {},
	}}
}

// Run drives the configured fleet against cfg.BaseURL and returns the
// merged report. The error return covers harness-level trouble (the
// daemon unreachable, ctx canceled); per-request trouble is data, not
// error — it lands in Report.Failed for Check to judge.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	base := strings.TrimRight(cfg.BaseURL, "/")
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Clients,
		MaxIdleConnsPerHost: cfg.Clients,
	}}
	defer hc.CloseIdleConnections()

	// Pre-flight snapshots: the deltas anchor every cross-check.
	var h0 serve.Health
	if err := getJSON(ctx, hc, base+"/healthz", &h0); err != nil {
		return nil, fmt.Errorf("loadgen: daemon unreachable: %w", err)
	}
	var c0 serve.CacheReport
	if err := getJSON(ctx, hc, base+"/v1/cache", &c0); err != nil {
		return nil, fmt.Errorf("loadgen: reading /v1/cache: %w", err)
	}

	// Artifact integrity across the fleet: the first success per spec
	// pins a digest every later answer for that spec must match.
	pins := &artifactPins{digests: make(map[int][32]byte)}

	tallies := make([]*clientTally, cfg.Clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		tallies[i] = newTally()
		wg.Add(1)
		go func(id int, tally *clientTally) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cfg.Seed) + int64(id)*1_000_003))
			<-start
			for r := 0; r < cfg.Requests; r++ {
				specIdx := rng.Intn(len(cfg.Specs))
				sse := rng.Float64() < cfg.SSEFraction
				runOne(ctx, hc, base, cfg, rng, tally, pins, specIdx, sse)
			}
		}(i, tallies[i])
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)

	// Merge the fleet.
	rep := &Report{
		Clients:    cfg.Clients,
		Requests:   cfg.Clients * cfg.Requests,
		Workers:    h0.Workers,
		MaxRuns:    h0.MaxRuns,
		ElapsedSec: elapsed.Seconds(),
	}
	rep.RequestsPerSec = float64(rep.Requests) / elapsed.Seconds()
	merged := map[string]*Hist{
		ClassCold: {}, ClassWarm: {}, ClassDeduped: {}, ClassRejected: {},
	}
	var ttff Hist
	successes := 0
	for _, tally := range tallies {
		for class, h := range tally.hists {
			merged[class].Merge(h)
		}
		ttff.Merge(&tally.ttff)
		rep.Rejected429 += tally.rejected
		rep.Retries += tally.retries
		rep.Accounting.SumMisses += tally.misses
		successes += tally.successes
		for _, f := range tally.failures {
			rep.Failed++
			if len(rep.FailureSamples) < 5 {
				rep.FailureSamples = append(rep.FailureSamples, f)
			}
		}
	}
	rep.Cold = merged[ClassCold].Summarize()
	rep.Warm = merged[ClassWarm].Summarize()
	rep.Deduped = merged[ClassDeduped].Summarize()
	rep.Rejected = merged[ClassRejected].Summarize()
	rep.TTFF = ttff.Summarize()

	// Drain, then cross-check. The daemon finishes its bookkeeping
	// (semaphore release, journal seal) moments after the last response
	// body closes, so poll rather than assert instantly.
	h1, drained := awaitDrain(ctx, hc, base, cfg.DrainTimeout)
	var c1 serve.CacheReport
	if err := getJSON(ctx, hc, base+"/v1/cache", &c1); err != nil {
		return nil, fmt.Errorf("loadgen: reading /v1/cache after load: %w", err)
	}
	a := &rep.Accounting
	a.NewCacheEntries = c1.Entries - c0.Entries
	a.MissesMatch = a.SumMisses == a.NewCacheEntries
	a.ActiveRunsDrained = drained
	a.RunLocksDrained = c1.ActiveRuns == 0
	a.Admitted = h1.Sweeps.Admitted - h0.Sweeps.Admitted
	a.Completed = h1.Sweeps.Completed - h0.Sweeps.Completed
	a.Canceled = h1.Sweeps.Canceled - h0.Sweeps.Canceled
	a.FailedRuns = h1.Sweeps.Failed - h0.Sweeps.Failed
	a.Rejected = h1.Sweeps.Rejected - h0.Sweeps.Rejected
	a.CountersConsistent = a.Admitted == a.Completed+a.Canceled+a.FailedRuns &&
		a.Completed == uint64(successes) &&
		a.Rejected == uint64(rep.Rejected429)
	return rep, nil
}

// runOne issues one logical request — 429s are retried with jittered
// backoff inside it — and records the outcome into tally.
func runOne(ctx context.Context, hc *http.Client, base string, cfg Config,
	rng *rand.Rand, tally *clientTally, pins *artifactPins, specIdx int, sse bool) {
	body := `{"spec":` + cfg.Specs[specIdx] + `}`
	t0 := time.Now()
	sawReject := false
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/sweeps", strings.NewReader(body))
		if err != nil {
			tally.fail("building request: " + err.Error())
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if sse {
			req.Header.Set("Accept", "text/event-stream")
		}
		resp, err := hc.Do(req)
		if err != nil {
			tally.fail("transport: " + err.Error())
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			tally.rejected++
			sawReject = true
			if attempt >= cfg.MaxRetries {
				tally.fail(fmt.Sprintf("429 retries exhausted after %d attempts", attempt+1))
				return
			}
			tally.retries++
			// Jittered backoff: the daemon's hint scaled by a uniform
			// [0.5, 1.5) factor, so a rejected thundering herd does not
			// re-arrive as a thundering herd.
			sleep := time.Duration(float64(retryAfter) * (0.5 + rng.Float64()) * cfg.BackoffScale)
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
				tally.fail("canceled during backoff: " + ctx.Err().Error())
				return
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			tally.fail(fmt.Sprintf("status %s: %s", resp.Status, bytes.TrimSpace(b)))
			return
		}
		var res *serve.SweepResult
		if sse {
			res, err = readSSEResult(resp.Body, t0, &tally.ttff)
		} else {
			res = new(serve.SweepResult)
			err = json.NewDecoder(resp.Body).Decode(res)
		}
		resp.Body.Close()
		if err != nil {
			tally.fail("reading response: " + err.Error())
			return
		}
		e2e := time.Since(t0)
		if err := pins.verify(specIdx, res); err != nil {
			tally.fail(err.Error())
			return
		}
		tally.hists[classify(sawReject, res.Stats)].Record(e2e)
		tally.misses += res.Stats.Misses
		tally.successes++
		return
	}
}

func (t *clientTally) fail(msg string) { t.failures = append(t.failures, msg) }

// parseRetryAfter reads the header's delay-seconds form; an absent or
// malformed header falls back to one second (the daemon always sends
// "1", but the client should not hot-loop against one that does not).
func parseRetryAfter(v string) time.Duration {
	if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil && n > 0 {
		return time.Duration(n) * time.Second
	}
	return time.Second
}

// readSSEResult consumes a stream, recording time-to-first-frame
// against t0, and returns the terminal result frame.
func readSSEResult(r io.Reader, t0 time.Time, ttff *Hist) (*serve.SweepResult, error) {
	sc := newSSEScanner(r)
	first := true
	for {
		event, data, err := sc.next()
		if err != nil {
			return nil, fmt.Errorf("SSE stream: %w", err)
		}
		if first {
			ttff.Record(time.Since(t0))
			first = false
		}
		switch event {
		case "result":
			res := new(serve.SweepResult)
			if err := json.Unmarshal([]byte(data), res); err != nil {
				return nil, fmt.Errorf("result frame: %w", err)
			}
			return res, nil
		case "error":
			return nil, fmt.Errorf("server error frame: %s", data)
		}
	}
}

// artifactPins detects cross-client divergence: every answer for one
// spec must be byte-identical (table, CSV, and embedded JSON) to the
// first answer the fleet saw for it — the served twin of the engine's
// worker-count-invariance contract.
type artifactPins struct {
	mu      sync.Mutex
	digests map[int][32]byte
}

func (p *artifactPins) verify(specIdx int, res *serve.SweepResult) error {
	h := sha256.New()
	io.WriteString(h, res.Table)
	io.WriteString(h, res.CSV)
	h.Write(res.JSON)
	var sum [32]byte
	h.Sum(sum[:0])
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.digests[specIdx]; ok {
		if prev != sum {
			return fmt.Errorf("artifact mismatch: spec %d answered with different bytes than an earlier response", specIdx)
		}
		return nil
	}
	p.digests[specIdx] = sum
	return nil
}

// awaitDrain polls /healthz until active_runs is 0 and the cumulative
// counters reconcile (every admitted run reached a terminal state), or
// the timeout expires. It returns the last health snapshot.
func awaitDrain(ctx context.Context, hc *http.Client, base string, timeout time.Duration) (serve.Health, bool) {
	deadline := time.Now().Add(timeout)
	var h serve.Health
	for {
		if err := getJSON(ctx, hc, base+"/healthz", &h); err == nil &&
			h.ActiveRuns == 0 &&
			h.Sweeps.Admitted == h.Sweeps.Completed+h.Sweeps.Canceled+h.Sweeps.Failed {
			return h, true
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return h, false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sseScanner yields SSE frames; the buffer cap accommodates result
// frames carrying whole sweep artifacts.
type sseScanner struct{ s *bufio.Scanner }

func newSSEScanner(r io.Reader) *sseScanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64<<10), 8<<20)
	return &sseScanner{s: s}
}

// next returns the next complete frame. A stream ending without a
// terminal frame surfaces as io.ErrUnexpectedEOF so callers never
// mistake a truncated stream for success.
func (r *sseScanner) next() (event, data string, err error) {
	for r.s.Scan() {
		line := r.s.Text()
		switch {
		case line == "":
			if event != "" || data != "" {
				return event, data, nil
			}
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := r.s.Err(); err != nil {
		return "", "", err
	}
	return "", "", io.ErrUnexpectedEOF
}
