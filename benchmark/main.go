// Command benchmark measures vmdg end to end and layer by layer.
//
// One run measures one workload for a fixed time and prints every
// metric as "workload metric value unit", then, as its last line, one
// JSON object with the keys correct, attempted, failed and metrics:
//
//	bash benchmark/run.sh --workload paper --seed 1 --seconds 10 --trace 0
//
// Without --workload it runs every workload, each in its own process.
// --trace 1 measures the workload twice, untraced and then traced, and
// prints the per-layer metrics instead of the end-to-end ones. -runs N
// records N seeded runs per workload; -compare reads two such records
// and checks every end-to-end median against its bound. README.md
// describes the workloads and metrics.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

//go:embed digests.json
var pinnedDigests []byte

// setupSamples is how many fresh processes time the set-up per run.
const setupSamples = 5

func main() {
	// Like cmd/dgrid: the simulations allocate fast but keep a small
	// live heap, so trade heap headroom for less collector time.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	var o opts
	var traceFlag int
	var setupOnly bool
	var runs int
	var record, compare, compareOut string
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: also run traced and print the per-layer metrics")
	flag.BoolVar(&o.tiny, "tiny", false, "test-sized workload shapes")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for caches")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "trace"), "directory traces are written to")
	flag.StringVar(&o.digests, "digests", "", "pinned-digest file (default: the embedded digests.json)")
	flag.BoolVar(&setupOnly, "setup-only", false, "set the workload up, print ready, and exit (set-up timing)")
	flag.IntVar(&runs, "runs", 0, "record N runs per workload, seeds -seed .. -seed+N-1")
	flag.StringVar(&record, "record", "", "file -runs writes its record to")
	flag.StringVar(&compare, "compare", "", "compare two records: BASE,NEW")
	flag.StringVar(&compareOut, "compare-out", "", "file -compare writes its summary to")
	flag.Parse()
	o.trace = traceFlag == 1

	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %v", flag.Args())
	case traceFlag != 0 && traceFlag != 1:
		err = fmt.Errorf("-trace %d: want 0 or 1", traceFlag)
	case !(o.seconds > 0):
		err = fmt.Errorf("-seconds %g: want a positive length", o.seconds)
	case compare != "":
		err = compareRecords(compare, compareOut)
	case runs > 0:
		err = recordRuns(o, runs, record)
	case o.workload == "":
		err = runAll(o)
	case setupOnly:
		err = setupOnce(o)
	default:
		var ok bool
		ok, err = runOne(o)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// resultLine is the JSON object every run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process and prints its result.
// It reports whether every check passed.
func runOne(o opts) (bool, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return false, err
	}
	var setups []float64
	if !o.trace {
		for i := 0; i < setupSamples; i++ {
			d, err := timeSetup(o)
			if err != nil {
				return false, err
			}
			setups = append(setups, d.Seconds())
		}
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	b, err := newBench(o, tr)
	if err != nil {
		return false, err
	}
	defer b.close()
	if err := b.setup(); err != nil {
		return false, err
	}
	d := time.Duration(o.seconds * float64(time.Second))
	w := b.measure(d, false)
	rss := peakRSS()
	var traced window
	if o.trace {
		traced = b.measure(d, true)
	}
	b.check()
	l, digest := b.result()
	if want, ok := pinFor(o, digest); !ok {
		l.note(fmt.Errorf("%s: outputs digest %.16s, pinned %.16s", o.workload, digest, want))
	} else {
		l.note(nil)
	}

	env := machine()
	fmt.Printf("# %s seed=%d seconds=%g trace=%d %s\n", o.workload, o.seed, o.seconds, btoi(o.trace), env)
	fmt.Printf("%s digest %s\n", o.workload, digest)
	var defs []metricDef
	values := map[string]float64{}
	if o.trace {
		defs = layerMetrics
		values = b.layers(traced)
		values["trace_overhead"] = ratio(median(traced.lat), median(w.lat)) - 1
		values["ops"] = float64(len(traced.lat))
		values["peak_rss_mb"] = float64(rss) / 1e6
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return false, err
		}
		if err := tr.write(path, map[string]any{"workload": o.workload, "seed": o.seed, "machine": env}); err != nil {
			return false, err
		}
		fmt.Printf("# trace written to %s\n", path)
	} else {
		defs = e2eMetrics
		values["setup_s"] = median(setups)
		values["op_p50_ms"] = median(w.lat)
		values["throughput_per_s"] = w.items / w.wall.Seconds()
		fmt.Printf("%s ops %d count\n", o.workload, len(w.lat))
	}
	line := resultLine{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := values[m.Name]
		fmt.Printf("%s %s %s %s\n", o.workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, f := range l.failures {
		fmt.Printf("# FAIL %s\n", f)
	}
	js, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(js))
	return line.Correct, nil
}

// pinFor looks up the digest pinned for this workload, shape and seed;
// a run with no pin passes.
func pinFor(o opts, digest string) (string, bool) {
	data := pinnedDigests
	if o.digests != "" {
		var err error
		if data, err = os.ReadFile(o.digests); err != nil {
			return "unreadable pin file", false
		}
	}
	var pins map[string]string
	if err := json.Unmarshal(data, &pins); err != nil {
		return "malformed pin file", false
	}
	want, ok := pins[pinKey(o)]
	return want, !ok || want == digest
}

func pinKey(o opts) string {
	shape := "full"
	if o.tiny {
		shape = "tiny"
	}
	return fmt.Sprintf("%s/%s/%d", o.workload, shape, o.seed)
}

// timeSetup starts a fresh process that only sets the workload up, and
// times it from start to its ready line: process start, package
// initialization and the workload's set-up, as a user pays them.
func timeSetup(o opts) (time.Duration, error) {
	args := []string{"-setup-only", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10), "-work", o.work}
	if o.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(self(), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up process: no ready line (%q)", line)
	}
	return d, nil
}

func setupOnce(o opts) error {
	b, err := newBench(o, nil)
	if err != nil {
		return err
	}
	defer b.close()
	if err := b.setup(); err != nil {
		return err
	}
	fmt.Println("ready")
	return nil
}

func self() string {
	exe, err := os.Executable()
	if err != nil {
		return os.Args[0]
	}
	return exe
}

// childArgs is the command line that runs one workload of o.
func childArgs(o opts, workload string, seed uint64) []string {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(btoi(o.trace)),
		"-work", o.work, "-out", o.out}
	if o.tiny {
		args = append(args, "-tiny")
	}
	if o.digests != "" {
		args = append(args, "-digests", o.digests)
	}
	return args
}

// runChild runs one workload in its own process, passing its output
// through, and returns its result line.
func runChild(o opts, workload string, seed uint64, passthrough io.Writer) (*resultLine, error) {
	cmd := exec.Command(self(), childArgs(o, workload, seed)...)
	var buf strings.Builder
	cmd.Stdout = io.MultiWriter(passthrough, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, nil
}

// runAll runs every workload, each in its own process so peak RSS is
// the workload's own, and fails if any of them does.
func runAll(o opts) error {
	bad := 0
	for _, w := range workloadNames {
		res, err := runChild(o, w, o.seed, os.Stdout)
		if err != nil {
			return err
		}
		if !res.Correct {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads failed their checks", bad, len(workloadNames))
	}
	return nil
}

// machine fingerprints where a result was measured.
func machine() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("gomaxprocs=%d nproc=%d workers=%d clients=%d go=%s cpu=%q",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), workers, clients, runtime.Version(), cpu)
}

// peakRSS is the process's peak resident set in bytes (VmHWM), or the
// runtime's OS-memory estimate where /proc is missing.
func peakRSS() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					return kb << 10
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
