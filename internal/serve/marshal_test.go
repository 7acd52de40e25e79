package serve

// White-box tests for the SSE encoding layer: writeSSE emits exactly
// one data: line per frame because the payload is a single JSON
// document — JSON escapes every newline — and MarshalEvent is the
// single encoder both transports share. These tests pin that contract
// on the payloads most likely to break it: strings carrying newlines,
// quotes, multi-byte UTF-8, and empty artifacts.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vmdg/internal/engine"
)

// nopFlusher satisfies http.Flusher for writeSSE against a buffer.
type nopFlusher struct{}

func (nopFlusher) Flush() {}

// parseSSEFrame splits one wire frame back into (event, data),
// asserting the frame's shape: an event: line, exactly one data:
// line, a blank terminator, nothing else.
func parseSSEFrame(t *testing.T, frame string) (event, data string) {
	t.Helper()
	if !strings.HasSuffix(frame, "\n\n") {
		t.Fatalf("frame does not end in a blank line: %q", frame)
	}
	lines := strings.Split(strings.TrimSuffix(frame, "\n\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("frame has %d lines, want exactly event: and data:\n%q", len(lines), frame)
	}
	if !strings.HasPrefix(lines[0], "event: ") || !strings.HasPrefix(lines[1], "data: ") {
		t.Fatalf("malformed frame lines: %q", frame)
	}
	return strings.TrimPrefix(lines[0], "event: "), strings.TrimPrefix(lines[1], "data: ")
}

// TestMarshalEventRoundTrip: every event payload — including
// experiment names with newlines, quotes, and multi-byte UTF-8 —
// fits one data: line, parses back, and re-encodes byte-identically.
func TestMarshalEventRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   engine.Event
	}{
		{"computed", engine.Event{Kind: engine.EventShardComputed, Experiment: "sweep", Shard: 3, Shards: 8, Done: 4, Total: 8}},
		{"cached", engine.Event{Kind: engine.EventShardCached, Experiment: "sweep", Shard: 0, Shards: 1, Done: 1, Total: 1}},
		{"merged", engine.Event{Kind: engine.EventExperimentMerged, Experiment: "sweep", Done: 8, Total: 8}},
		{"empty name", engine.Event{Kind: engine.EventShardComputed}},
		{"newlines", engine.Event{Kind: engine.EventShardComputed, Experiment: "line one\nline two\r\nline three"}},
		{"quotes and backslashes", engine.Event{Kind: engine.EventShardCached, Experiment: `say "hello" \ goodbye`}},
		{"utf-8", engine.Event{Kind: engine.EventExperimentMerged, Experiment: "flotte—παράδειγμα—艦隊 🛰"}},
		{"control bytes", engine.Event{Kind: engine.EventShardComputed, Experiment: "tab\there\x00null"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := MarshalEvent(tc.ev)
			if bytes.ContainsAny(b, "\n\r") {
				t.Fatalf("marshaled event contains raw newline bytes: %q", b)
			}

			var buf bytes.Buffer
			writeSSE(&buf, nopFlusher{}, "shard", b)
			event, data := parseSSEFrame(t, buf.String())
			if event != "shard" {
				t.Errorf("event = %q, want shard", event)
			}
			if data != string(b) {
				t.Errorf("frame data differs from the marshaled event:\n%q\nvs\n%q", data, b)
			}

			var back Event
			if err := json.Unmarshal([]byte(data), &back); err != nil {
				t.Fatalf("frame data does not parse back: %v", err)
			}
			again, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, b) {
				t.Errorf("re-encoded event differs:\n%s\nvs\n%s", again, b)
			}
		})
	}
}

// TestMarshalEventKinds: the engine→wire kind mapping, exhaustively.
func TestMarshalEventKinds(t *testing.T) {
	for kind, want := range map[engine.EventKind]string{
		engine.EventShardComputed:    "computed",
		engine.EventShardCached:      "cached",
		engine.EventExperimentMerged: "merged",
	} {
		var ev Event
		if err := json.Unmarshal(MarshalEvent(engine.Event{Kind: kind}), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind != want {
			t.Errorf("kind %d marshals to %q, want %q", kind, ev.Kind, want)
		}
	}
}

// resultFrameCases are result frames worth pinning: whole artifacts —
// ASCII tables full of newlines, CSV, embedded JSON — and empty ones.
// They also seed FuzzResultFrame.
var resultFrameCases = []struct {
	name string
	res  SweepResult
}{
	{"empty table", SweepResult{Name: "sweep", Table: "", CSV: "", JSON: json.RawMessage(`{}`)}},
	{"multi-line table", SweepResult{
		Name:  "sweep",
		Table: "policy  machines  done\nfifo    60        8\ndeadline 90       7\n",
		CSV:   "policy,machines,done\r\nfifo,60,8\r\n",
		JSON:  json.RawMessage(`{"variants":[{"label":"policy=fifo"}]}`),
		Stats: RunStats{Experiments: 1, Shards: 4, Misses: 4, ElapsedMS: 12},
	}},
	{"quotes and utf-8", SweepResult{
		Name:  `sweep "quoted"`,
		Table: "env: qemu—π\n\"quoted cell\"\n",
		CSV:   `env,"with,comma"` + "\n",
		JSON:  json.RawMessage(`{"name":"π 🛰"}`),
	}},
}

// TestResultFrameRoundTrip: the terminal result frame carries whole
// artifacts and must survive the same single-line framing. Empty
// artifacts (a table with no rows, an empty CSV) must round-trip too,
// not degenerate to null or a missing field.
func TestResultFrameRoundTrip(t *testing.T) {
	for _, tc := range resultFrameCases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.res)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.ContainsAny(b, "\n\r") {
				t.Fatalf("marshaled result contains raw newline bytes: %q", b)
			}
			var buf bytes.Buffer
			writeSSE(&buf, nopFlusher{}, "result", b)
			event, data := parseSSEFrame(t, buf.String())
			if event != "result" {
				t.Errorf("event = %q, want result", event)
			}
			var back SweepResult
			if err := json.Unmarshal([]byte(data), &back); err != nil {
				t.Fatalf("result frame does not parse back: %v", err)
			}
			if back.Table != tc.res.Table || back.CSV != tc.res.CSV || back.Name != tc.res.Name {
				t.Errorf("artifacts did not survive the frame:\n%+v\nvs\n%+v", back, tc.res)
			}
			again, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, b) {
				t.Errorf("re-encoded result differs:\n%s\nvs\n%s", again, b)
			}
		})
	}
}
