package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// record is the file -runs writes: every run's result line, by
// workload, beside the machine it was measured on.
type record struct {
	Machine string                    `json:"machine"`
	Seconds float64                   `json:"seconds"`
	Runs    map[string][]seededResult `json:"runs"`
}

type seededResult struct {
	Seed uint64 `json:"seed"`
	resultLine
}

// summary is one metric over a set of runs.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median.
	Spread float64 `json:"spread"`
}

func summarize(vs []float64) summary {
	q1, q3 := quartiles(vs)
	return summary{N: len(vs), Median: median(vs), Q1: q1, Q3: q3, Spread: spread(vs)}
}

// values collects one metric across a workload's runs.
func values(runs []seededResult, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// recordRuns runs each workload n times, seeds o.seed onwards, each in
// its own process, and prints every end-to-end metric's median,
// quartiles and spread against its bound. A spread wider than a third
// of the bound is flagged: such a metric cannot resolve a regression of
// its bound size.
func recordRuns(o opts, n int, path string) error {
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
	}
	o.trace = false
	rec := record{Machine: machine(), Seconds: o.seconds, Runs: map[string][]seededResult{}}
	failed := 0
	for _, w := range names {
		for i := 0; i < n; i++ {
			seed := o.seed + uint64(i)
			res, err := runChild(o, w, seed, io.Discard)
			if err != nil {
				return err
			}
			if !res.Correct {
				failed++
			}
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: correct=%t attempted=%d failed=%d\n",
				w, seed, res.Correct, res.Attempted, res.Failed)
			rec.Runs[w] = append(rec.Runs[w], seededResult{Seed: seed, resultLine: *res})
		}
	}
	fmt.Printf("# %d runs per workload, %gs each, %s\n", n, o.seconds, rec.Machine)
	fmt.Printf("%-13s %-17s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range names {
		for _, m := range e2eMetrics {
			s := summarize(values(rec.Runs[w], m.Name))
			flag := ""
			if m.Name != "setup_s" && s.Spread > m.Bound/3 {
				flag = " wide"
			}
			fmt.Printf("%-13s %-17s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%%s\n",
				w, m.Name, s.Median, s.Q1, s.Q3, 100*s.Spread, 100*m.Bound, flag)
		}
	}
	if path != "" {
		b, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed their checks", failed)
	}
	return nil
}

// comparison is the file -compare writes.
type comparison struct {
	BaseMachine string                                 `json:"base_machine"`
	NewMachine  string                                 `json:"new_machine"`
	Seconds     float64                                `json:"seconds"`
	Workloads   map[string]map[string]metricComparison `json:"workloads"`
}

type metricComparison struct {
	Unit      string  `json:"unit"`
	Better    string  `json:"better"`
	Bound     float64 `json:"bound"`
	Base      summary `json:"base"`
	New       summary `json:"new"`
	Regressed bool    `json:"regressed"`
}

// compareRecords checks every end-to-end median of the NEW record
// against the BASE record's, workload by workload, and the failed
// share of operations, which may not grow at all.
func compareRecords(spec, out string) error {
	paths := strings.Split(spec, ",")
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants BASE,NEW, got %q", spec)
	}
	var recs [2]record
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	base, cur := recs[0], recs[1]
	cmp := comparison{BaseMachine: base.Machine, NewMachine: cur.Machine, Seconds: cur.Seconds,
		Workloads: map[string]map[string]metricComparison{}}
	fmt.Printf("%-13s %-17s %14s %14s %9s %6s\n", "workload", "metric", "base", "new", "change", "bound")
	regressions := 0
	for _, w := range sortedKeys(base.Runs) {
		if _, ok := cur.Runs[w]; !ok {
			continue
		}
		cmp.Workloads[w] = map[string]metricComparison{}
		for _, m := range append(e2eMetrics, failedRatio) {
			var a, b []float64
			if m.Name == failedRatio.Name {
				a, b = []float64{failedShare(base.Runs[w])}, []float64{failedShare(cur.Runs[w])}
			} else {
				a, b = values(base.Runs[w], m.Name), values(cur.Runs[w], m.Name)
			}
			mc := metricComparison{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Base: summarize(a), New: summarize(b)}
			mc.Regressed = m.regressed(mc.Base.Median, mc.New.Median)
			verdict := ""
			if mc.Regressed {
				verdict = " REGRESSED"
				regressions++
			}
			fmt.Printf("%-13s %-17s %14.6g %14.6g %+8.2f%% %5.0f%%%s\n", w, m.Name, mc.Base.Median, mc.New.Median,
				100*ratio(mc.New.Median-mc.Base.Median, mc.Base.Median), 100*m.Bound, verdict)
			cmp.Workloads[w][m.Name] = mc
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(cmp, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}

// failedShare is failed over attempted operations across runs.
func failedShare(runs []seededResult) float64 {
	var attempted, failed int
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(attempted))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
