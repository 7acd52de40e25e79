package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestSmokeEveryWorkload builds the benchmark and runs each workload at
// its tiny shape, untraced and traced: every metric of the mode must be
// printed with its unit, in the human lines and the result line, and
// every check must pass. A corrupted pinned digest must fail the run.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "vmdg-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, workload string, trace int, pins string) (*resultLine, string, error) {
		args := []string{"-workload", workload, "-seed", "1", "-seconds", "0.2", "-trace", fmt.Sprint(trace),
			"-tiny", "-work", filepath.Join(dir, "work"), "-out", filepath.Join(dir, "trace")}
		if pins != "" {
			args = append(args, "-digests", pins)
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res resultLine
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			t.Errorf("%s trace=%d: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", workload, trace, jerr, &stdout, &stderr)
			return &res, stdout.String(), jerr
		}
		return &res, stdout.String(), err
	}

	var mu sync.Mutex
	digests := map[string]string{}
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloadNames {
			t.Run(w, func(t *testing.T) {
				t.Parallel()
				for trace, defs := range [][]metricDef{e2eMetrics, layerMetrics} {
					res, out, err := run(t, w, trace, "")
					if err != nil || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
						t.Fatalf("trace=%d: err %v, result %+v\n%s", trace, err, res, out)
					}
					if len(res.Metrics) != len(defs) {
						t.Errorf("trace=%d: %d metrics in the result line, want %d", trace, len(res.Metrics), len(defs))
					}
					for _, m := range defs {
						if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
							t.Errorf("trace=%d: result line has %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
						}
						prefix := fmt.Sprintf("\n%s %s ", w, m.Name)
						i := strings.Index(out, prefix)
						if i < 0 || !strings.HasPrefix(strings.SplitN(out[i+len(prefix):], " ", 2)[1], m.Unit+"\n") {
							t.Errorf("trace=%d: no %q line with unit %s", trace, strings.TrimSpace(prefix), m.Unit)
						}
					}
					for _, line := range strings.Split(out, "\n") {
						if f := strings.Fields(line); len(f) == 3 && f[0] == w && f[1] == "digest" {
							mu.Lock()
							digests[w] = f[2]
							mu.Unlock()
						}
					}
					if trace == 1 {
						if _, err := os.Stat(filepath.Join(dir, "trace", fmt.Sprintf("trace-%s-1.json", w))); err != nil {
							t.Errorf("no trace file: %v", err)
						}
					}
				}
			})
		}
	})

	pins := filepath.Join(dir, "pins.json")
	for _, c := range []struct {
		digest string
		pass   bool
	}{
		{digests["fleet-quorum"], true},
		{strings.Repeat("0", 64), false},
	} {
		b, _ := json.Marshal(map[string]string{"fleet-quorum/tiny/1": c.digest})
		if err := os.WriteFile(pins, b, 0o644); err != nil {
			t.Fatal(err)
		}
		res, out, err := run(t, "fleet-quorum", 0, pins)
		if c.pass != (err == nil) || c.pass != res.Correct {
			t.Errorf("pinned digest %.12s: exit error %v, correct %v, want pass %v\n%s", c.digest, err, res.Correct, c.pass, out)
		}
	}
}
