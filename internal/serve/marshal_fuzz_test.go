package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzResultFrame sends a SweepResult built from fuzzed artifact
// strings and stats, with a valid JSON artifact, through writeSSE. The
// frame must be exactly an event: result line, one data: line and a
// blank line, and its data must decode back to the same result. Each
// string is compared with its own json.Marshal round trip, because the
// encoder replaces every byte of invalid UTF-8 with U+FFFD.
func FuzzResultFrame(f *testing.F) {
	for _, tc := range resultFrameCases {
		st := tc.res.Stats
		f.Add(tc.res.Name, tc.res.Table, tc.res.CSV, st.Experiments, st.Shards, st.Hits, st.Misses,
			st.Resumed, st.FlightHits, st.FlightShared, st.ElapsedMS)
	}
	f.Fuzz(func(t *testing.T, name, table, csv string, experiments, shards, hits, misses,
		resumed, flightHits, flightShared int, elapsedMS int64) {
		artifact, err := json.Marshal(map[string]string{"name": name, "csv": csv})
		if err != nil {
			t.Fatal(err)
		}
		res := SweepResult{Name: name, Table: table, CSV: csv, JSON: artifact, Stats: RunStats{
			Experiments: experiments, Shards: shards, Hits: hits, Misses: misses, Resumed: resumed,
			FlightHits: flightHits, FlightShared: flightShared, ElapsedMS: elapsedMS,
		}}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		writeSSE(&buf, nopFlusher{}, "result", b)
		event, data := parseSSEFrame(t, buf.String())
		if event != "result" {
			t.Fatalf("event = %q, want result", event)
		}
		if data != string(b) {
			t.Fatalf("frame data differs from the marshaled result:\n%q\nvs\n%q", data, b)
		}
		var back SweepResult
		if err := json.Unmarshal([]byte(data), &back); err != nil {
			t.Fatalf("result frame does not parse back: %v", err)
		}
		want := res
		want.Name, want.Table, want.CSV = jsonRoundTrip(t, name), jsonRoundTrip(t, table), jsonRoundTrip(t, csv)
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("result did not survive the frame:\n got %#v\nwant %#v", back, want)
		}
	})
}

// jsonRoundTrip is s as it comes back from its own JSON encoding.
func jsonRoundTrip(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back string
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	return back
}
