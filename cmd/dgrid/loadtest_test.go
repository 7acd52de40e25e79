package main

import (
	"errors"
	"strings"
	"testing"
)

func TestParseLoadtestArgs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
		check   func(*loadtestOpts) bool
	}{
		{name: "defaults", args: nil,
			check: func(o *loadtestOpts) bool {
				cfg := o.config("")
				return o.clients == 200 && o.requests == 5 && o.specs == 8 &&
					o.sse == 0.5 && o.retries == 100 &&
					cfg.SSEFraction == 0.5 && cfg.MaxRetries == 100
			}},
		{name: "quick reduces shape", args: []string{"-quick"},
			check: func(o *loadtestOpts) bool { return o.requests == 2 && o.specs == 4 }},
		{name: "quick keeps explicit shape", args: []string{"-quick", "-requests", "7", "-specs", "3"},
			check: func(o *loadtestOpts) bool { return o.requests == 7 && o.specs == 3 }},
		// An explicit value equal to the flag's default is still explicit.
		{name: "quick keeps explicit default values", args: []string{"-quick", "-requests", "5", "-clients", "3"},
			check: func(o *loadtestOpts) bool { return o.clients == 3 && o.requests == 5 && o.specs == 4 }},
		{name: "sse zero streams nothing",
			args: []string{"-clients", "4", "-requests", "3", "-specs", "2", "-quick", "-sse", "0"},
			check: func(o *loadtestOpts) bool {
				return o.sse == 0 && o.requests == 3 && o.specs == 2 && o.config("").SSEFraction < 0
			}},
		{name: "retries zero fails on first 429",
			args: []string{"-clients", "20", "-requests", "2", "-specs", "2", "-workers", "1", "-max-runs", "1", "-retries", "0"},
			check: func(o *loadtestOpts) bool {
				return o.retries == 0 && o.workers == 1 && o.maxRuns == 1 && o.config("").MaxRetries < 0
			}},
		{name: "addr", args: []string{"-addr", "http://127.0.0.1:8787"},
			check: func(o *loadtestOpts) bool { return o.addr == "http://127.0.0.1:8787" }},
		{name: "zero clients", args: []string{"-clients", "0"}, wantErr: "must be positive"},
		{name: "sse out of range", args: []string{"-sse", "1.5"}, wantErr: "outside [0, 1]"},
		{name: "negative retries", args: []string{"-retries", "-3"}, wantErr: "-retries must be non-negative"},
		// loadtest writes no artifact and gates no latency: these flags are usage errors.
		{name: "check flags", args: []string{"-check", "-baseline", "B.json", "-tolerance", "0.5"},
			wantErr: "flag provided but not defined: -check"},
		{name: "negative tolerance", args: []string{"-tolerance", "-1"},
			wantErr: "flag provided but not defined: -tolerance"},
		{name: "out", args: []string{"-out", "serve.json"},
			wantErr: "flag provided but not defined: -out"},
		{name: "positional junk", args: []string{"extra"}, wantErr: "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := parseLoadtestArgs(tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want contains %q", err, tc.wantErr)
				}
				if tc.wantErr != "unexpected arguments" && !errors.Is(err, errUsage) {
					t.Errorf("err = %v, want a usage error (exit 2)", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(o) {
				t.Errorf("parsed opts = %+v", o)
			}
		})
	}
}
