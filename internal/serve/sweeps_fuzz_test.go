package serve_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vmdg/internal/serve"
)

// FuzzDecodeSweepRequest feeds arbitrary bodies to the POST /v1/sweeps
// decoder. It must never panic; a body it accepts must hold one JSON
// value followed by nothing but whitespace; and an accepted request,
// re-encoded with json.Marshal, must be accepted again and resolve to
// the same spec or to the same error.
func FuzzDecodeSweepRequest(f *testing.F) {
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "sweep.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, spec := range []string{smallSpec, bigSpec, otherSpec, string(example)} {
		f.Add([]byte(`{"spec":` + spec + `}`))
	}
	f.Add([]byte(`{"spec":` + smallSpec + `,"set":["machines=100..400*2"],"seed":3,"quick":true}`))
	for _, tc := range badRequests {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := serve.DecodeSweepRequest(body)
		if err != nil {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		if err := dec.Decode(new(json.RawMessage)); err != nil {
			t.Fatalf("accepted a body that is not JSON: %v", err)
		}
		for _, c := range body[dec.InputOffset():] {
			if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
				t.Fatalf("accepted %q with %q after its JSON value", body, body[dec.InputOffset():])
			}
		}
		sp, resolveErr := req.Resolve()
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("marshaling an accepted request: %v", err)
		}
		back, err := serve.DecodeSweepRequest(out)
		if err != nil {
			t.Fatalf("rejects its own re-encoding %s: %v", out, err)
		}
		sp2, resolveErr2 := back.Resolve()
		switch {
		case (resolveErr == nil) != (resolveErr2 == nil):
			t.Fatalf("re-encoding %s changed the outcome: %v, then %v", out, resolveErr, resolveErr2)
		case resolveErr != nil && resolveErr.Error() != resolveErr2.Error():
			t.Fatalf("re-encoding %s changed the error: %v, then %v", out, resolveErr, resolveErr2)
		case resolveErr == nil && !reflect.DeepEqual(sp, sp2):
			t.Fatalf("re-encoding %s changed the spec:\n got %#v\nwant %#v", out, sp2, sp)
		}
	})
}
