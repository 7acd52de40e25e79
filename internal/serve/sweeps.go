package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"

	"vmdg/internal/core"
	"vmdg/internal/engine"
	"vmdg/internal/grid"
)

// maxRequestBytes bounds a sweep request's body; a grid.Spec is a few
// hundred bytes, so anything near this limit is not a spec.
const maxRequestBytes = 1 << 20

// SweepRequest is the POST /v1/sweeps body: a grid.Spec document plus
// the same override surface the CLI exposes — -set assignments applied
// in order, then the seed/quick scalars. Spec alone, Set alone, or
// both work, exactly as `dgrid sweep -spec file.json -set axis=...`.
type SweepRequest struct {
	Spec  json.RawMessage `json:"spec,omitempty"`
	Set   []string        `json:"set,omitempty"`
	Seed  uint64          `json:"seed,omitempty"`
	Quick bool            `json:"quick,omitempty"`
}

// DecodeSweepRequest parses a POST /v1/sweeps body: one JSON document
// with no unknown fields, followed by nothing but whitespace.
func DecodeSweepRequest(body []byte) (SweepRequest, error) {
	var req SweepRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return SweepRequest{}, fmt.Errorf("decoding request: %w", err)
	}
	// More() would miss a stray closing delimiter such as the second
	// brace of {"spec":{...}}}: only the end of the input may follow.
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return SweepRequest{}, errors.New("decoding request: trailing data after the JSON document")
	}
	return req, nil
}

// Resolve builds the normalized, validated spec the request describes,
// with the CLI's precedence (grid.ResolveSpec): the spec document
// first, then the Set overrides in order, then the scalar overrides.
func (req *SweepRequest) Resolve() (grid.Spec, error) {
	return grid.ResolveSpec(req.Spec, req.Set, req.Seed, req.Quick)
}

// Event is the wire form of one engine progress event, the data
// payload of every SSE "shard"/"merged" frame. MarshalEvent is the
// single encoder, so a streamed run's frames byte-match a serial run's
// OnEvent sequence encoded the same way.
type Event struct {
	Kind       string `json:"kind"` // "computed", "cached", "merged"
	Experiment string `json:"experiment"`
	Shard      int    `json:"shard"`
	Shards     int    `json:"shards"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
}

// MarshalEvent encodes one engine event as its wire JSON.
func MarshalEvent(ev engine.Event) []byte {
	kind := "computed"
	switch ev.Kind {
	case engine.EventShardCached:
		kind = "cached"
	case engine.EventExperimentMerged:
		kind = "merged"
	}
	b, _ := json.Marshal(Event{
		Kind:       kind,
		Experiment: ev.Experiment,
		Shard:      ev.Shard,
		Shards:     ev.Shards,
		Done:       ev.Done,
		Total:      ev.Total,
	})
	return b
}

// SweepResult is the final answer of a sweep request: the same three
// artifact forms `dgrid sweep` can emit (table, CSV, merged JSON,
// byte-identical to the CLI's), plus the run's engine stats. It is the
// buffered response body and the SSE "result" frame.
type SweepResult struct {
	Name  string          `json:"name"`
	Table string          `json:"table"`
	CSV   string          `json:"csv"`
	JSON  json.RawMessage `json:"json"`
	Stats RunStats        `json:"stats"`
}

// RunStats mirrors engine.Stats in snake_case.
type RunStats struct {
	Experiments  int   `json:"experiments"`
	Shards       int   `json:"shards"`
	Hits         int   `json:"hits"`
	Misses       int   `json:"misses"`
	Resumed      int   `json:"resumed"`
	FlightHits   int   `json:"flight_hits"`
	FlightShared int   `json:"flight_shared"`
	ElapsedMS    int64 `json:"elapsed_ms"`
}

func newRunStats(st engine.Stats) RunStats {
	return RunStats{
		Experiments:  st.Experiments,
		Shards:       st.Shards,
		Hits:         st.Hits,
		Misses:       st.Misses,
		Resumed:      st.Resumed,
		FlightHits:   st.FlightHits,
		FlightShared: st.FlightShared,
		ElapsedMS:    st.Elapsed.Milliseconds(),
	}
}

// handleSweeps admits, runs, and answers one sweep. The engine side is
// a per-request Runner over the daemon's shared pool, cache, and
// flight group; the request's context is the run's context, so a
// disconnected client cancels its own run (and only its own — see
// engine.RunContext).
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	s.init()
	log := s.Log.With("req", s.reqSeq.Add(1))

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading request: " + err.Error()})
		return
	}
	req, err := DecodeSweepRequest(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	sp, err := req.Resolve()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// The experiment name matches the CLI's, so served artifacts (whose
	// JSON embeds the name) are byte-identical to `dgrid sweep` output
	// and both share cached shards and manifests.
	exp, err := engine.NewSweep("sweep", "served scenario sweep", sp)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	// Admission: never queue behind the semaphore — a saturated daemon
	// says so immediately and the client retries, instead of holding
	// connections open against an invisible backlog.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.ctr.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests,
			errorBody{Error: fmt.Sprintf("at capacity (%d runs active); retry shortly", s.MaxRuns)})
		log.Warn("sweep rejected", "active", s.active.Load(), "max_runs", s.MaxRuns)
		return
	}
	s.ctr.admitted.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)

	runner := &engine.Runner{Pool: s.Pool, Cache: s.Cache}
	if s.Resume {
		runner.Manifests = s.Cache.Manifests()
	}
	// The spec governs seed and quick, as in the CLI, so cache keys and
	// scenario resolution agree across transports.
	cfg := core.Config{Seed: sp.Seed, Quick: sp.Quick}
	log.Info("sweep admitted",
		"points", sp.NPoints(), "axes", strings.Join(sp.SweptAxes(), "x"), "seed", sp.Seed, "quick", sp.Quick)

	s.answerSweep(w, r, log, runner, cfg, exp)
}

// answerSweep runs the sweep and answers it. A client that asks for a
// progress stream, on a writer that can flush, gets Server-Sent Events:
// one "shard" frame per folded task and one "merged" frame per
// experiment, in the engine's deterministic collector order, then a
// final "result" frame carrying the same SweepResult the plain-JSON
// answer is (or an "error" frame). The engine calls OnEvent from the
// collector goroutine, which here is the handler's own, so frames are
// written race-free and in order. Any other client gets the result, or
// the error, as one JSON body once the run completes.
func (s *Server) answerSweep(w http.ResponseWriter, r *http.Request, log *slog.Logger,
	runner *engine.Runner, cfg core.Config, exp engine.Experiment) {
	fl, canFlush := w.(http.Flusher)
	sse := canFlush && strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		fl.Flush()
		runner.OnEvent = func(ev engine.Event) {
			name := "shard"
			if ev.Kind == engine.EventExperimentMerged {
				name = "merged"
			}
			writeSSE(w, fl, name, MarshalEvent(ev))
		}
	}
	outcomes, stats, err := runner.RunContext(r.Context(), cfg, []engine.Experiment{exp})
	switch {
	case err != nil && r.Context().Err() != nil:
		// The client is gone; there is no one to answer.
		s.ctr.canceled.Add(1)
		log.Info("sweep canceled", "reason", "client disconnected", "folded", stats.Hits+stats.Misses)
	case err != nil:
		s.ctr.failed.Add(1)
		if sse {
			b, _ := json.Marshal(errorBody{Error: err.Error()})
			writeSSE(w, fl, "error", b)
		} else {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
		log.Error("sweep failed", "err", err)
	default:
		s.ctr.completed.Add(1)
		// Compact, not indented: re-indenting would reformat the
		// embedded JSON artifact, which must stay byte-identical to the
		// CLI's.
		b, _ := json.Marshal(sweepResult(outcomes[0], stats))
		if sse {
			writeSSE(w, fl, "result", b)
		} else {
			w.Header().Set("Content-Type", "application/json")
			w.Write(append(b, '\n'))
		}
		logDone(log, stats)
	}
}

func sweepResult(o *engine.Outcome, stats engine.Stats) SweepResult {
	return SweepResult{
		Name:  o.Name,
		Table: o.Render(),
		CSV:   o.CSV(),
		JSON:  o.Raw,
		Stats: newRunStats(stats),
	}
}

// writeSSE emits one event frame and flushes it to the client. Data is
// a single JSON document (no newlines), so one data: line suffices.
func writeSSE(w io.Writer, fl http.Flusher, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	fl.Flush()
}

func logDone(log *slog.Logger, st engine.Stats) {
	log.Info("sweep done",
		"shards", st.Shards, "computed", st.Misses, "cached", st.Hits,
		"resumed", st.Resumed, "flight_hits", st.FlightHits, "flight_shared", st.FlightShared,
		"elapsed", st.Elapsed.Round(st.Elapsed/100+1).String())
}
