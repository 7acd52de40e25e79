package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
	"vmdg/internal/loadgen"
	"vmdg/internal/serve"
)

// The serve-mix traffic: of each client's requests, coldFraction ask
// for a spec no one asked for before (so the daemon computes and
// stores while it serves warm replays), and sseFraction stream.
const (
	warmSpecs    = 8
	coldFraction = 0.1
	sseFraction  = 0.5
)

// serveMix drives an in-process daemon with closed-loop clients: each
// client sends its next request only when the previous answer is in,
// as sweep clients do. A closed loop keeps the measured latency about
// the daemon rather than about how late a timer woke on a busy box.
type serveMix struct {
	o       opts
	tr      *tracer
	traceOn atomic.Bool

	dir  string
	pool *engine.Pool
	fc   *engine.FileCache
	ts   *httptest.Server
	hc   *http.Client

	warm    []string // request bodies of the warm specs
	pins    [][32]byte
	coldSeq atomic.Int64
	windows int

	mu   sync.Mutex
	cold map[int64][32]byte // cold spec k -> answered artifact

	reqs  []request // the last window's answered requests
	delta cacheDelta
	ledger
}

// request is one answered request of a window.
type request struct {
	span      int
	class     string
	lat, ttff float64 // ms; ttff only for streamed answers
	frames    int
	bytes     int
}

// cacheDelta is what one window changed in the shared cache.
type cacheDelta struct {
	entries, bytes     int64
	memHits, memMisses uint64
	rejected           int
}

func newServeMix(o opts, tr *tracer) *serveMix {
	return &serveMix{o: o, tr: tr, cold: map[int64][32]byte{}}
}

// setup starts the daemon on a fresh cache and answers each warm spec
// once, so the measured window starts with them cached.
func (s *serveMix) setup() error {
	dir, err := os.MkdirTemp(s.o.work, s.o.workload+"-*")
	if err != nil {
		return err
	}
	s.dir = dir
	s.fc, err = engine.NewFileCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	s.fc.EnableMemTier(engine.DefaultMemTierBytes)
	s.pool = engine.NewPool(workers)
	// Resume stays off. With it on, every request rewrites its fold
	// journal — three file creations and two fsyncs — and on a 2-vCPU
	// VM whose ext4 is mounted with discard that path alone swung
	// warm p50 between 0.7 and 2.2 ms from one run to the next, which no
	// bound can absorb. The batch workloads journal every run instead.
	srv := &serve.Server{Pool: s.pool, Cache: s.fc,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	var h http.Handler = srv.Handler()
	if s.tr != nil {
		h = traceHandler(h, s.tr, &s.traceOn)
	}
	s.ts = httptest.NewServer(h)
	s.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	for i, spec := range loadgen.DefaultSpecMix(warmSpecs) {
		s.warm = append(s.warm, s.body(spec))
		res, _, err := s.post(s.warm[i], false, -1, "", time.Now())
		if err != nil {
			return fmt.Errorf("serve-mix: set-up request for spec %d: %w", i, err)
		}
		if res.Stats.Misses == 0 {
			return fmt.Errorf("serve-mix: spec %d was already cached at set-up", i)
		}
		s.pins = append(s.pins, artifactDigest(res))
	}
	return nil
}

func (s *serveMix) body(spec string) string {
	return fmt.Sprintf(`{"spec":%s,"seed":%d}`, spec, s.o.seed)
}

// coldBody is the k-th cold request: the warm mix's shape at 1000
// machines — two population slices to compute and store — with
// a faulty-host fraction no earlier request used. Seed and shape stay
// those of the warm specs, so every cold request costs the same and
// reuses the process's calibrations.
func (s *serveMix) coldBody(k int64) (string, error) {
	sp, err := grid.ParseSpec([]byte(loadgen.DefaultSpecMix(1)[0]))
	if err != nil {
		return "", err
	}
	sp.Machines = []int{1000}
	sp.FaultyFrac = []float64{grid.DefaultFaultyFrac + float64(k)*1e-6}
	b, err := sp.JSON()
	if err != nil {
		return "", err
	}
	return s.body(string(b)), nil
}

// tally is one client's share of a window.
type tally struct {
	reqs     []request
	misses   int
	rejected int
	ledger
}

func (s *serveMix) measure(d time.Duration, traced bool) window {
	s.traceOn.Store(traced)
	defer s.traceOn.Store(false)
	w := window{}
	if traced {
		w.first = s.tr.count()
	}
	st0, err0 := s.fc.Stats()
	mem0, _ := s.fc.MemStats()
	tallies := make([]tally, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[c] = s.client(c, deadline, traced)
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	s.windows++
	if traced {
		w.last = s.tr.count()
	}

	misses := 0
	s.reqs, s.delta = nil, cacheDelta{}
	for i := range tallies {
		t := &tallies[i]
		s.merge(&t.ledger)
		misses += t.misses
		s.delta.rejected += t.rejected
		s.reqs = append(s.reqs, t.reqs...)
	}
	for _, r := range s.reqs {
		w.lat = append(w.lat, r.lat)
	}
	w.items = float64(len(s.reqs))

	// Every shard the daemon reported computing is stored exactly once.
	st1, err := s.fc.Stats()
	if err == nil {
		err = err0
	}
	if err == nil && int(st1.Entries-st0.Entries) != misses {
		err = fmt.Errorf("serve-mix: %d shards computed but %d cache entries added", misses, st1.Entries-st0.Entries)
	}
	s.note(err)
	mem1, _ := s.fc.MemStats()
	s.delta.entries = int64(st1.Entries - st0.Entries)
	s.delta.bytes = st1.Bytes - st0.Bytes
	s.delta.memHits, s.delta.memMisses = mem1.Hits-mem0.Hits, mem1.Misses-mem0.Misses
	return w
}

// client runs one closed loop until the deadline. Its request schedule
// comes from the seed alone.
func (s *serveMix) client(c int, deadline time.Time, traced bool) tally {
	rng := rand.New(rand.NewPCG(s.o.seed, uint64(s.windows*clients+c)))
	var t tally
	for time.Now().Before(deadline) {
		class, warm, k := "warm", rng.IntN(len(s.warm)), int64(0)
		body := s.warm[warm]
		if rng.Float64() < coldFraction {
			class, k = "cold", s.coldSeq.Add(1)
			var err error
			if body, err = s.coldBody(k); err != nil {
				t.note(err)
				continue
			}
		}
		sse := rng.Float64() < sseFraction
		id := -1
		if traced {
			id = s.tr.begin("serve.request", class)
		}
		t0 := time.Now()
		res, rq, err := s.post(body, sse, id, class, t0)
		rq.lat = ms(time.Since(t0))
		if traced {
			s.tr.end(id)
		}
		if err == nil {
			err = s.verify(res, class, warm, k)
		}
		if errors.Is(err, errRejected) {
			t.rejected++
		}
		t.note(err)
		if err != nil {
			continue
		}
		rq.span, rq.class = id, class
		t.reqs = append(t.reqs, rq)
		t.misses += res.Stats.Misses
	}
	return t
}

// verify checks one answer: a warm answer replays the artifact pinned at
// set-up without computing; a cold one computes, and its artifact is
// kept for the direct re-run.
func (s *serveMix) verify(res *serve.SweepResult, class string, warm int, k int64) error {
	if class == "warm" {
		if res.Stats.Misses != 0 {
			return fmt.Errorf("serve-mix: warm spec %d computed %d shards", warm, res.Stats.Misses)
		}
		if artifactDigest(res) != s.pins[warm] {
			return fmt.Errorf("serve-mix: warm spec %d answered different bytes than at set-up", warm)
		}
		return nil
	}
	if res.Stats.Misses == 0 {
		return fmt.Errorf("serve-mix: cold spec %d was not computed", k)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cold[k] = artifactDigest(res)
	return nil
}

// errRejected marks a 429 answer: the daemon turned the request away.
var errRejected = errors.New("serve-mix: request rejected")

// post sends one sweep request and reads the answer, streamed or
// buffered.
func (s *serveMix) post(body string, sse bool, span int, class string, t0 time.Time) (*serve.SweepResult, request, error) {
	var rq request
	req, err := http.NewRequest("POST", s.ts.URL+"/v1/sweeps", strings.NewReader(body))
	if err != nil {
		return nil, rq, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
		req.Header.Set(classHeader, class)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, rq, err
	}
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		io.Copy(io.Discard, cr)
		return nil, rq, fmt.Errorf("%w: %s", errRejected, resp.Status)
	case resp.StatusCode != http.StatusOK:
		b, _ := io.ReadAll(io.LimitReader(cr, 512))
		return nil, rq, fmt.Errorf("serve-mix: status %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	res := new(serve.SweepResult)
	if sse {
		err = readStream(cr, res, &rq, t0)
	} else {
		err = json.NewDecoder(cr).Decode(res)
	}
	io.Copy(io.Discard, cr)
	rq.bytes = cr.n
	return res, rq, err
}

// readStream consumes an SSE answer into res, counting frames and
// timing the first.
func readStream(r io.Reader, res *serve.SweepResult, rq *request, t0 time.Time) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			rq.frames++
			if rq.frames == 1 {
				rq.ttff = ms(time.Since(t0))
			}
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "result":
				return json.Unmarshal([]byte(data), res)
			case "error":
				return fmt.Errorf("serve-mix: error frame: %s", data)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// artifactDigest hashes the three artifact forms an answer carries.
func artifactDigest(res *serve.SweepResult) [32]byte {
	return sha256.Sum256([]byte(res.Table + "\x00" + res.CSV + "\x00" + string(res.JSON)))
}

// check runs every warm spec and a seeded sample of the cold ones
// directly through engine.NewSweep: the daemon's answers must match
// byte for byte.
func (s *serveMix) check() {
	for i, body := range s.warm {
		s.note(s.direct(body, s.pins[i]))
	}
	ks := make([]int64, 0, len(s.cold))
	for k := range s.cold {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	rng := rand.New(rand.NewPCG(s.o.seed, 0xc01d))
	rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	for _, k := range ks[:min(3, len(ks))] {
		body, err := s.coldBody(k)
		if err == nil {
			err = s.direct(body, s.cold[k])
		}
		s.note(err)
	}
}

// direct runs a request body's sweep on a private runner and compares
// its artifact with the served one.
func (s *serveMix) direct(body string, served [32]byte) error {
	var req serve.SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		return err
	}
	sp, err := req.Resolve()
	if err != nil {
		return err
	}
	exp, err := engine.NewSweep("sweep", "served scenario sweep", sp)
	if err != nil {
		return err
	}
	outs, _, err := (&engine.Runner{Workers: workers}).Run(
		core.Config{Seed: sp.Seed, Quick: sp.Quick}, []engine.Experiment{exp})
	if err != nil {
		return err
	}
	o := outs[0]
	if artifactDigest(&serve.SweepResult{Table: o.Render(), CSV: o.CSV(), JSON: o.Raw}) != served {
		return fmt.Errorf("serve-mix: served artifact for machines=%v faulty=%v differs from a direct sweep", sp.Machines, sp.FaultyFrac)
	}
	return nil
}

// result pins the warm specs' artifacts; cold answers depend on how
// many requests fit the window, so only the direct re-run checks them.
func (s *serveMix) result() (*ledger, string) {
	h := sha256.New()
	for _, p := range s.pins {
		h.Write(p[:])
	}
	return &s.ledger, hex.EncodeToString(h.Sum(nil))
}

func (s *serveMix) layers(w window) map[string]float64 {
	handler := map[int]time.Duration{}
	for _, sp := range s.tr.snapshot()[w.first:w.last] {
		if sp.Name == "serve.handler" {
			handler[sp.Parent] = sp.dur()
		}
	}
	var warm, cold, ttff, hWarm, hCold, clientWarm, sizes []float64
	frames := 0
	for _, r := range s.reqs {
		h, ok := handler[r.span]
		if r.class == "warm" {
			warm = append(warm, r.lat)
			if ok {
				hWarm = append(hWarm, ms(h))
				clientWarm = append(clientWarm, r.lat-ms(h))
			}
		} else {
			cold = append(cold, r.lat)
			if ok {
				hCold = append(hCold, ms(h))
			}
		}
		if r.frames > 0 {
			ttff = append(ttff, r.ttff)
		}
		frames += r.frames
		sizes = append(sizes, float64(r.bytes))
	}
	d := s.delta
	return map[string]float64{
		"serve.warm_ms.p50":          median(warm),
		"serve.warm_ms.tail":         tail(warm),
		"serve.cold_ms.p50":          median(cold),
		"serve.cold_ms.tail":         tail(cold),
		"serve.ttff_ms.p50":          median(ttff),
		"serve.warm_requests":        float64(len(warm)),
		"serve.cold_requests":        float64(len(cold)),
		"serve.handler_ms.warm.p50":  median(hWarm),
		"serve.handler_ms.warm.tail": tail(hWarm),
		"serve.handler_ms.cold.p50":  median(hCold),
		"serve.client_ms.warm.p50":   median(clientWarm),
		"serve.mem_tier_hit_ratio":   ratio(float64(d.memHits), float64(d.memHits+d.memMisses)),
		"serve.cache_entries_new":    float64(d.entries),
		"serve.cache_bytes_new":      float64(d.bytes),
		"serve.sse_frames":           float64(frames),
		"serve.response_bytes.p50":   median(sizes),
		"serve.rejected_429":         float64(d.rejected),
	}
}

func (s *serveMix) close() {
	if s.ts != nil {
		s.hc.CloseIdleConnections()
		s.ts.Close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}
