// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the public entry points (experiments/runner for the
// figure sweeps, core/sim/trace for trace replay, serve over loopback HTTP),
// checks that every simulated result is correct, and prints every end-to-end
// metric of BENCHMARK.json by name and unit. With -trace 1 it instead makes
// the traced run that gives the per-layer metrics, and writes the recorded
// spans as Chrome trace-event JSON under the build directory.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload sweep-synth --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each BENCHMARK.json workload name to the function that runs it.
var workloads = map[string]func(b *bench) error{
	"sweep-synth":  runSweepSynth,
	"trace-replay": runTraceReplay,
	"serve-mixed":  runServeMixed,
}

// maxProcs bounds GOMAXPROCS and every worker pool: the benchmark targets a
// two-core machine.
const maxProcs = 2

func procs() int {
	if n := runtime.NumCPU(); n < maxProcs {
		return n
	}
	return maxProcs
}

// benchSpec is the part of BENCHMARK.json the program needs: metric names
// and units. It is the single source of truth for what a run must print.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's state: its inputs, its correctness tally and the
// metrics it has measured.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	work     string   // temporary directory, removed at exit
	spans    *spanLog // nil in untraced runs
	pin      string   // digest pin file to write, "" normally

	attempted, failed int64
	problems          []string

	units   map[string]string // every metric BENCHMARK.json names → unit
	metrics map[string]metric
	absent  map[string]string // per-layer metric name prefix → why this workload cannot measure it
}

// check counts one checked operation, failing it when ok is false.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// set records a metric; its unit must match BENCHMARK.json.
func (b *bench) set(name string, v float64, unit string) {
	if want, ok := b.units[name]; !ok || want != unit {
		panic(fmt.Sprintf("metric %s (%s) is not in BENCHMARK.json with that unit", name, unit))
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// notMeasured records why the per-layer metrics named by these prefixes do
// not apply to this workload.
func (b *bench) notMeasured(reason string, prefixes ...string) {
	for _, p := range prefixes {
		b.absent[p] = reason
	}
}

// absentReason is the recorded reason for an unmeasured metric, matched by
// the longest recorded prefix.
func (b *bench) absentReason(name string) (string, bool) {
	best, reason := -1, ""
	for p, r := range b.absent {
		if strings.HasPrefix(name, p) && len(p) > best {
			best, reason = len(p), r
		}
	}
	return reason, best >= 0
}

func main() {
	workload := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measurement window in seconds")
	traceMode := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	buildDir := flag.String("build-dir", ".bench_build", "directory for temporary files and trace output")
	pin := flag.String("pin", "", "write this workload's result digests to this file instead of checking them (use with the default seed)")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *traceMode, *buildDir, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, traceMode int, buildDir, pin string) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	runWorkload, ok := workloads[workload]
	if !ok || !spec.hasWorkload(workload) {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || (traceMode != 0 && traceMode != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0|1")
	}
	if pin != "" && seed != defaultSeed {
		return fmt.Errorf("-pin records the default seed %d", defaultSeed)
	}
	runtime.GOMAXPROCS(procs())

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-"+workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b := &bench{
		workload: workload, seed: seed, seconds: time.Duration(seconds) * time.Second,
		traced: traceMode == 1, work: work, pin: pin,
		units: map[string]string{}, metrics: map[string]metric{}, absent: map[string]string{},
	}
	want := spec.EndToEnd
	if b.traced {
		want = spec.PerLayer
		b.spans = newSpanLog()
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		b.units[m.Name] = m.Unit
	}

	if err := runWorkload(b); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}

	if b.traced {
		if err := writeTrace(b, buildDir); err != nil {
			return err
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, map[string]metric{}}
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok {
			reason, why := b.absentReason(m.Name)
			if !b.traced || !why {
				return fmt.Errorf("metric %s was not measured", m.Name)
			}
			// Every per-layer name is printed; one this workload does not
			// exercise reads 0, with its reason on the line printed here.
			fmt.Printf("not measured on %s: %s (%s)\n", workload, m.Name, reason)
			v = metric{Value: 0, Unit: m.Unit}
		}
		out.Metrics[m.Name] = v
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func (s benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// writeTrace writes the traced run's spans and a self-time summary.
func writeTrace(b *bench, buildDir string) error {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", b.workload, b.seed))
	if err := b.spans.writeChrome(path); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	self := b.spans.selfByName()
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, k int) bool { return self[names[i]] > self[names[k]] })
	fmt.Fprintf(os.Stderr, "spans: %d recorded, written to %s; self time by span:\n", len(b.spans.spans), path)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-22s %10.1f ms\n", n, ms(self[n]))
	}
	return nil
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample reads the Go runtime counters behind go.alloc_mb and
// go.gc_cpu_frac.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// setRuntime records allocation and GC share between two samples, per unit
// of work (one sweep, one replay pass, one load phase).
func (b *bench) setRuntime(from, to runtimeSample) {
	b.set("go.alloc_mb", float64(to.allocBytes-from.allocBytes)/1e6, "MB")
	b.set("go.gc_cpu_frac", ratio(to.gcCPU-from.gcCPU, to.totalCPU-from.totalCPU), "frac")
}

// timeSetup runs setup reps times, keeping the last result, and records the
// median as setup_s. Repeating it, each time from a freshly collected heap,
// is what makes set-up time steady enough to gate. discard, when non-nil,
// releases each earlier result outside the timing.
func timeSetup[T any](b *bench, reps int, setup func(i int) (T, error), discard func(T) error) (T, error) {
	var v T
	var ds []float64
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			if err := discard(v); err != nil {
				return v, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if v, err = setup(i); err != nil {
			return v, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	if !b.traced {
		b.set("setup_s", median(ds), "s")
	}
	return v, nil
}

// repeat runs unit until the measurement window is spent: at least minReps
// times, and never starting a repetition that the previous one's duration
// says would overrun the window.
func repeat(window time.Duration, minReps int, unit func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minReps || time.Since(start)+last <= window; i++ {
		t0 := time.Now()
		if err := unit(i); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}
