package loadgen

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmdg/internal/serve"
)

// startLocal wires a fresh in-process daemon for one test.
func startLocal(t *testing.T, workers, maxRuns int) string {
	t.Helper()
	url, shutdown, err := Local(workers, maxRuns, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	return url
}

// TestFleetColdWarmDedupAccounting: a small fleet over a two-spec mix
// against a cold daemon. Exactly one run per spec computes (the cold
// class), every other request is warm or deduped, nothing fails, and
// every cross-check in the accounting contract holds.
func TestFleetColdWarmDedupAccounting(t *testing.T) {
	url := startLocal(t, 2, 8)
	rep, err := Run(context.Background(), Config{
		BaseURL:  url,
		Clients:  8,
		Requests: 3,
		Specs:    DefaultSpecMix(2),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check() = %v\nreport: %+v", err, rep)
	}
	if rep.Requests != 24 || rep.Failed != 0 {
		t.Fatalf("requests %d failed %d, want 24/0", rep.Requests, rep.Failed)
	}
	// maxRuns 8 admits the whole fleet: no request should see a 429,
	// so the classes partition into cold/warm/deduped only.
	if rep.Rejected429 != 0 || rep.Rejected.Count != 0 {
		t.Errorf("unsaturated daemon rejected %d requests", rep.Rejected429)
	}
	if rep.Cold.Count != 2 {
		t.Errorf("cold count = %d, want exactly 2 (one leader per spec)", rep.Cold.Count)
	}
	if got := rep.Warm.Count + rep.Deduped.Count; got != 22 {
		t.Errorf("warm %d + deduped %d = %d, want 22", rep.Warm.Count, rep.Deduped.Count, got)
	}
	a := rep.Accounting
	if a.SumMisses != 2 || a.NewCacheEntries != 2 {
		t.Errorf("Σmisses %d, new entries %d, want 2/2", a.SumMisses, a.NewCacheEntries)
	}
	if a.Admitted != 24 || a.Completed != 24 || a.Canceled != 0 || a.FailedRuns != 0 {
		t.Errorf("counter deltas %+v, want 24 admitted == 24 completed", a)
	}
	// Half the requests streamed (SSEFraction default 0.5, seeded), so
	// time-to-first-frame has observations and sane percentiles.
	if rep.TTFF.Count == 0 || rep.TTFF.P50Ms <= 0 {
		t.Errorf("TTFF = %+v, want streamed observations", rep.TTFF)
	}
	if rep.Warm.Count > 0 && rep.Warm.P99Ms <= 0 {
		t.Errorf("warm p99 = %v, want > 0", rep.Warm.P99Ms)
	}
}

// TestSaturated429AllClientsEventuallySucceed is the explicit 429-path
// test: one admission slot, six clients arriving at once. The daemon
// must turn the excess away with Retry-After, the clients must honor
// it with jittered backoff, and every request must eventually succeed
// — zero hard failures, with the daemon's rejected counter agreeing
// with the clients' count of 429s seen.
func TestSaturated429AllClientsEventuallySucceed(t *testing.T) {
	url := startLocal(t, 1, 1)
	rep, err := Run(context.Background(), Config{
		BaseURL:      url,
		Clients:      6,
		Requests:     2,
		Specs:        DefaultSpecMix(2),
		Seed:         7,
		BackoffScale: 0.05, // compress the 1s Retry-After hints to ~25-75ms
		MaxRetries:   500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatalf("Check() = %v\nreport: %+v", err, rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d requests failed under saturation: %v", rep.Failed, rep.FailureSamples)
	}
	if rep.Rejected429 == 0 {
		t.Fatal("six clients through one admission slot saw zero 429s — the saturation path was not exercised")
	}
	if rep.Retries != rep.Rejected429 {
		t.Errorf("retries %d != rejections %d: some 429 was not retried", rep.Retries, rep.Rejected429)
	}
	if rep.Rejected.Count == 0 {
		t.Error("no request classified rejected despite 429s")
	}
	if got := rep.Accounting.Rejected; got != uint64(rep.Rejected429) {
		t.Errorf("daemon counted %d rejections, clients saw %d", got, rep.Rejected429)
	}
}

// TestSSEFractionNegativeStreamsNothing: a negative SSEFraction is the
// explicit 0 (a zero field means the 0.5 default), so no request
// streams and no time-to-first-frame is recorded.
func TestSSEFractionNegativeStreamsNothing(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		BaseURL: startLocal(t, 2, 8), Clients: 4, Requests: 3, Specs: DefaultSpecMix(2), SSEFraction: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil || rep.TTFF.Count != 0 {
		t.Errorf("Check() = %v, TTFF count = %d; want nil, 0", err, rep.TTFF.Count)
	}
}

// TestMaxRetriesBudget: against a daemon that answers every sweep with
// 429, a negative MaxRetries (the explicit 0) fails the request on its
// first 429, while a zero field still means the default 100 retries.
func TestMaxRetriesBudget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		io.WriteString(w, "{}") // an idle, empty daemon on /healthz and /v1/cache
	}))
	defer ts.Close()
	for _, tc := range []struct{ maxRetries, wantRetries int }{{-1, 0}, {0, 100}} {
		rep, err := Run(context.Background(), Config{
			BaseURL: ts.URL, Clients: 1, Requests: 1, MaxRetries: tc.maxRetries, BackoffScale: 1e-6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 1 || rep.Retries != tc.wantRetries || rep.Rejected429 != tc.wantRetries+1 {
			t.Errorf("MaxRetries %d: failed %d, retries %d, 429s %d; want 1, %d, %d",
				tc.maxRetries, rep.Failed, rep.Retries, rep.Rejected429, tc.wantRetries, tc.wantRetries+1)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"1", time.Second},
		{"3", 3 * time.Second},
		{" 2 ", 2 * time.Second},
		{"", time.Second},
		{"soon", time.Second},
		{"-4", time.Second},
		{"0", time.Second},
	} {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		sawReject bool
		st        serve.RunStats
		want      string
	}{
		{false, serve.RunStats{Misses: 4}, ClassCold},
		{false, serve.RunStats{Misses: 1, FlightHits: 3}, ClassCold},
		{false, serve.RunStats{Hits: 2, FlightHits: 2}, ClassDeduped},
		{false, serve.RunStats{Hits: 4}, ClassWarm},
		{false, serve.RunStats{}, ClassWarm},
		{true, serve.RunStats{Misses: 4}, ClassRejected},
	} {
		if got := classify(tc.sawReject, tc.st); got != tc.want {
			t.Errorf("classify(%v, %+v) = %q, want %q", tc.sawReject, tc.st, got, tc.want)
		}
	}
}

// TestReportCheck: Check judges exactly the failure modes it names.
func TestReportCheck(t *testing.T) {
	clean := func() *Report {
		return &Report{
			Requests: 10,
			Accounting: Accounting{
				MissesMatch: true, ActiveRunsDrained: true,
				RunLocksDrained: true, CountersConsistent: true,
			},
		}
	}
	if err := clean().Check(); err != nil {
		t.Fatalf("clean report failed Check: %v", err)
	}
	for name, breakIt := range map[string]func(*Report){
		"failed request":   func(r *Report) { r.Failed = 1; r.FailureSamples = []string{"boom"} },
		"misses mismatch":  func(r *Report) { r.Accounting.MissesMatch = false },
		"active runs":      func(r *Report) { r.Accounting.ActiveRunsDrained = false },
		"stale run lock":   func(r *Report) { r.Accounting.RunLocksDrained = false },
		"counter mismatch": func(r *Report) { r.Accounting.CountersConsistent = false },
	} {
		r := clean()
		breakIt(r)
		if err := r.Check(); err == nil {
			t.Errorf("%s: Check() = nil, want error", name)
		}
	}
}

// TestDefaultSpecMixDistinct: every spec in the mix is valid JSON-ish
// and distinct — distinct cache key spaces are what make the mix's
// cold budget exactly len(mix).
func TestDefaultSpecMixDistinct(t *testing.T) {
	specs := DefaultSpecMix(8)
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s] {
			t.Errorf("duplicate spec in mix: %s", s)
		}
		seen[s] = true
		if !strings.Contains(s, `"quick":true`) {
			t.Errorf("mix spec not quick: %s", s)
		}
	}
	if len(specs) != 8 {
		t.Errorf("len = %d, want 8", len(specs))
	}
}
