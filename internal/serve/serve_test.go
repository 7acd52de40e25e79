package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
	"vmdg/internal/serve"
)

// smallSpec is a 2×2 (policy × machines) quick grid: four one-shard
// points, the same shape the engine's own sweep tests use.
const smallSpec = `{"version":1,"quick":true,"envs":["vmplayer"],"machines":[60,90],"minutes":[30],"churn":[true],"policy":["fifo","deadline"]}`

// bigSpec is one 16-shard point (4 population slices × the default
// four environments) that runs for several hundred milliseconds: after
// its first shard folds, enough work remains that a test can act
// (disconnect, saturate) while the run is reliably still in flight.
const bigSpec = `{"version":1,"quick":true,"machines":[2000],"minutes":[480],"churn":[true],"policy":["fifo"]}`

// otherSpec is a distinct small point, sharing no cache keys with the
// spec above.
const otherSpec = `{"version":1,"quick":true,"envs":["vmplayer"],"machines":[75],"minutes":[30],"churn":[true],"policy":["fifo"]}`

func newServer(t *testing.T, maxRuns int, logW io.Writer) (*httptest.Server, *serve.Server) {
	t.Helper()
	pool := engine.NewPool(2)
	t.Cleanup(pool.Close)
	fc, err := engine.NewFileCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fc.EnableMemTier(engine.DefaultMemTierBytes)
	if logW == nil {
		logW = io.Discard
	}
	s := &serve.Server{
		Pool: pool, Cache: fc, MaxRuns: maxRuns, Resume: true,
		Log: slog.New(slog.NewTextHandler(logW, nil)),
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// serialSweep runs the spec serially on a private runner and returns
// the reference outcome plus the wire-encoded OnEvent sequence.
func serialSweep(t *testing.T, specJSON string) (*engine.Outcome, []string) {
	t.Helper()
	sp, err := grid.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.Normalize()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	exp, err := engine.NewSweep("sweep", "serial reference", sp)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	r := &engine.Runner{Workers: 1, Cache: engine.NewMemCache(), OnEvent: func(ev engine.Event) {
		events = append(events, string(serve.MarshalEvent(ev)))
	}}
	outs, _, err := r.Run(core.Config{Seed: sp.Seed, Quick: sp.Quick}, []engine.Experiment{exp})
	if err != nil {
		t.Fatal(err)
	}
	return outs[0], events
}

func postSweep(t *testing.T, url, specJSON string) (*serve.SweepResult, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"spec":`+specJSON+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/sweeps: %s: %s", resp.Status, b)
	}
	var res serve.SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return &res, resp
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// sseReader yields SSE frames one at a time.
type sseReader struct{ s *bufio.Scanner }

func newSSEReader(r io.Reader) *sseReader { return &sseReader{s: bufio.NewScanner(r)} }

func (r *sseReader) next() (event, data string, err error) {
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
	return "", "", io.EOF
}

// startSSE opens a streaming sweep request on ctx.
func startSSE(t *testing.T, ctx context.Context, url, specJSON string) (*http.Response, *sseReader) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "POST", url+"/v1/sweeps",
		strings.NewReader(`{"spec":`+specJSON+`}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST /v1/sweeps (SSE): %s: %s", resp.Status, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	return resp, newSSEReader(resp.Body)
}

func TestHealthz(t *testing.T) {
	ts, _ := newServer(t, 0, nil)
	var h serve.Health
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Version == "" || h.Go == "" {
		t.Errorf("healthz = %+v, want ok status with build identity", h)
	}
	if h.Workers != 2 || h.MaxRuns != 4 || h.ActiveRuns != 0 {
		t.Errorf("healthz = %+v, want workers 2, max_runs 4 (2× workers), no active runs", h)
	}
	if h.Version != serve.Version() {
		t.Errorf("healthz version %q != serve.Version() %q", h.Version, serve.Version())
	}
}

// TestSweepBufferedMatchesSerial: a served sweep's three artifact forms
// are byte-identical to a serial `dgrid sweep` run, a repeat request is
// answered warm from the manifest + cache, and /v1/cache accounts for
// exactly the unique shard keys.
func TestSweepBufferedMatchesSerial(t *testing.T) {
	ts, _ := newServer(t, 0, nil)
	ref, _ := serialSweep(t, smallSpec)

	res, _ := postSweep(t, ts.URL, smallSpec)
	if res.Name != "sweep" || res.Table != ref.Render() || res.CSV != ref.CSV() {
		t.Errorf("served artifacts differ from the serial reference:\n%s\nvs\n%s", res.Table, ref.Render())
	}
	if !bytes.Equal(res.JSON, ref.Raw) {
		t.Error("served JSON artifact differs from the serial reference")
	}
	if res.Stats.Shards != 4 || res.Stats.Misses != 4 || res.Stats.Hits != 0 {
		t.Errorf("cold stats = %+v, want 4 computed shards", res.Stats)
	}

	// Warm repeat: the journaled fold verifies against the cache and
	// replays without simulating.
	res2, _ := postSweep(t, ts.URL, smallSpec)
	if res2.Table != ref.Render() {
		t.Error("warm artifacts differ from the serial reference")
	}
	if res2.Stats.Misses != 0 || res2.Stats.Hits != 4 || res2.Stats.Resumed != 4 {
		t.Errorf("warm stats = %+v, want 4 hits, 4 resumed, 0 misses", res2.Stats)
	}

	var rep serve.CacheReport
	getJSON(t, ts.URL+"/v1/cache", &rep)
	if rep.Entries != 4 {
		t.Errorf("cache entries = %d, want 4 (one per unique shard key)", rep.Entries)
	}
	if rep.Manifests != 1 || rep.Resumable != 0 {
		t.Errorf("cache report = %+v, want one complete manifest", rep)
	}
}

// TestConcurrentIdenticalSweepsComputeOnce is the acceptance invariant:
// two concurrent identical requests compute each shard once — however
// they interleave, Σmisses across both equals the unique key count
// reported by /v1/cache — and both receive the serial artifacts.
func TestConcurrentIdenticalSweepsComputeOnce(t *testing.T) {
	ts, _ := newServer(t, 0, nil)
	ref, _ := serialSweep(t, smallSpec)

	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		got []*serve.SweepResult
	)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _ := postSweep(t, ts.URL, smallSpec)
			mu.Lock()
			got = append(got, res)
			mu.Unlock()
		}()
	}
	wg.Wait()

	var rep serve.CacheReport
	getJSON(t, ts.URL+"/v1/cache", &rep)
	if rep.Entries != 4 {
		t.Errorf("cache entries = %d, want 4 (one per unique shard key)", rep.Entries)
	}
	misses := 0
	for _, res := range got {
		misses += res.Stats.Misses
		if res.Table != ref.Render() || res.CSV != ref.CSV() || !bytes.Equal(res.JSON, ref.Raw) {
			t.Error("a concurrent request's artifacts differ from the serial reference")
		}
	}
	if misses != rep.Entries {
		t.Errorf("Σmisses = %d != %d unique keys: concurrent identical sweeps re-computed shards", misses, rep.Entries)
	}
}

// TestSSEEventsMatchSerialOrder: the streamed shard/merged frames are
// byte-identical, in order, to a serial run's OnEvent sequence encoded
// with the same MarshalEvent — the stream exposes the engine's
// deterministic collector order, nothing else.
func TestSSEEventsMatchSerialOrder(t *testing.T) {
	ts, _ := newServer(t, 0, nil)
	ref, refEvents := serialSweep(t, smallSpec)

	resp, r := startSSE(t, context.Background(), ts.URL, smallSpec)
	defer resp.Body.Close()
	var events []string
	var result *serve.SweepResult
	for {
		event, data, err := r.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch event {
		case "shard", "merged":
			events = append(events, data)
		case "result":
			var res serve.SweepResult
			if err := json.Unmarshal([]byte(data), &res); err != nil {
				t.Fatal(err)
			}
			result = &res
		case "error":
			t.Fatalf("server sent error frame: %s", data)
		}
	}
	if len(events) != len(refEvents) {
		t.Fatalf("streamed %d events, serial run emitted %d", len(events), len(refEvents))
	}
	for i := range events {
		if events[i] != refEvents[i] {
			t.Errorf("event %d differs:\n stream: %s\n serial: %s", i, events[i], refEvents[i])
		}
	}
	if result == nil {
		t.Fatal("stream ended without a result frame")
	}
	if result.Table != ref.Render() || !bytes.Equal(result.JSON, ref.Raw) {
		t.Error("streamed result differs from the serial reference")
	}
}

// TestClientDisconnectCancelsRun: dropping an SSE consumer mid-sweep
// cancels that run — and only that run. The concurrent request's
// artifacts still match its serial reference, and the daemon's
// active-run gauge drains to zero.
func TestClientDisconnectCancelsRun(t *testing.T) {
	var logbuf syncBuffer
	ts, _ := newServer(t, 0, &logbuf)
	ref, _ := serialSweep(t, otherSpec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, r := startSSE(t, ctx, ts.URL, bigSpec)
	defer resp.Body.Close()
	// One folded shard means the run is well inside the simulate loop.
	if event, _, err := r.next(); err != nil || event != "shard" {
		t.Fatalf("first frame = %q, %v; want a shard event", event, err)
	}

	// Overlap a second, different request, then drop the first client.
	done := make(chan *serve.SweepResult, 1)
	go func() {
		res, _ := postSweep(t, ts.URL, otherSpec)
		done <- res
	}()
	cancel()
	resp.Body.Close()

	res := <-done
	if res.Table != ref.Render() || !bytes.Equal(res.JSON, ref.Raw) {
		t.Error("the surviving request's artifacts differ from its serial reference")
	}

	// The canceled run must release its admission slot promptly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h serve.Health
		getJSON(t, ts.URL+"/healthz", &h)
		if h.ActiveRuns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("active_runs still %d after disconnect", h.ActiveRuns)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if log := logbuf.String(); !strings.Contains(log, "sweep canceled") {
		t.Errorf("daemon log records no cancellation:\n%s", log)
	}
}

// TestAdmissionSaturationAnswers429: with one admission slot occupied
// by an in-flight sweep, the next request is turned away immediately
// with 429 + Retry-After instead of queueing.
func TestAdmissionSaturationAnswers429(t *testing.T) {
	ts, _ := newServer(t, 1, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp, r := startSSE(t, ctx, ts.URL, bigSpec)
	defer resp.Body.Close()
	if event, _, err := r.next(); err != nil || event != "shard" {
		t.Fatalf("first frame = %q, %v; want a shard event", event, err)
	}

	resp2, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"spec":`+smallSpec+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %s, want 429", resp2.Status)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
}

// badRequests are bodies POST /v1/sweeps must answer with a 400, each
// with a fragment its JSON error must contain ("" for any error).
var badRequests = []struct{ body, wantErr string }{
	{`{not json`, "decoding request"},
	{`{"unknown_field":1}`, "unknown_field"},
	{`{"set":["nosuchaxis=1"]}`, ""},
	{`{"spec":{"version":1,"machines":[-5]}}`, ""},
	// Non-finite floats are rejected before any shard runs.
	{`{"set":["deadline_min=NaN"]}`, ""},
	{`{"set":["deadline_min=+Inf"]}`, ""},
	{`{"set":["faulty=NaN"]}`, ""},
	{`{"set":["bandwidth=NaN"]}`, ""},
	{`{"set":["bandwidth=+Inf"]}`, ""},
	// One object per body: whatever follows it is refused, not ignored.
	{`{"spec":` + smallSpec + `} {"set":["machines=5000000"]}`, trailingData},
	{`{"spec":` + smallSpec + `}garbage`, trailingData},
	{`{"spec":` + smallSpec + `}}`, trailingData},
	{`{"spec":` + smallSpec + `}]`, trailingData},
}

const trailingData = "decoding request: trailing data after the JSON document"

// TestBadRequests: malformed bodies and invalid specs are 400s with a
// JSON error, not admitted runs.
func TestBadRequests(t *testing.T) {
	ts, _ := newServer(t, 0, nil)
	for _, tc := range badRequests {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var eb struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || eb.Error == "" {
			t.Errorf("POST %q = %s (decode err %v), want 400 with a JSON error", tc.body, resp.Status, err)
		} else if !strings.Contains(eb.Error, tc.wantErr) {
			t.Errorf("POST %q: error %q does not mention %q", tc.body, eb.Error, tc.wantErr)
		}
	}
}

// TestEndOfTimeSweepLeavesDaemonUp: at 1e-9 Mbit/s a checkpoint upload
// drains past the end of virtual time. Its wrapped drain instant once
// panicked a pool worker, and with it the whole daemon. The request
// must now get its answer, and the daemon must keep serving.
func TestEndOfTimeSweepLeavesDaemonUp(t *testing.T) {
	ts, _ := newServer(t, 0, nil)
	body := `{"quick":true,"set":["bandwidth=1e-9"],"spec":{"version":1,"envs":["vmplayer"],` +
		`"machines":[64],"minutes":[60],"churn":[true],"migration":["on-departure"]}}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res serve.SweepResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || res.Stats.Misses == 0 {
		t.Fatalf("POST = %s (decode err %v, stats %+v), want 200 with computed shards", resp.Status, err, res.Stats)
	}
	var h serve.Health
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthz after the sweep = %+v", h)
	}
}

// syncBuffer is an io.Writer safe for the handler goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
