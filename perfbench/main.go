// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload through the public entry points of the scheduler stack,
// checks the outputs, and prints its metrics as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload sim-deep --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 additionally times
// every layer call from outside — in half of the passes, or on plan-cold
// in a layer-by-layer replay of one build — writes the spans to
// .bench_build/spans/ and prints the per-layer metrics.
// README.md explains the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// endToEnd lists the metrics every workload reports with --trace 0, with
// their units. Each workload gives them its own meaning (README.md).
var endToEnd = map[string]string{
	"setup_s":            "s",
	"peak_rss_mb":        "MB",
	"throughput_per_s":   "1/s",
	"latency_ms_p50":     "ms",
	"latency_ms_tail":    "ms",
	"plan_samples_per_s": "samples/s",
}

// perLayer lists the metrics every workload reports with --trace 1. A
// layer a workload leaves idle reads 0.
var perLayer = map[string]string{
	"model.build_ms":             "ms",
	"profiler.comm_ms":           "ms",
	"profiler.profile_ms":        "ms",
	"profiler.grids":             "count",
	"planner.plan_ms":            "ms",
	"planner.candidates":         "count",
	"search.full_ms":             "ms",
	"search.pruned_ms":           "ms",
	"search.calls":               "count",
	"evalcache.stage_hit_ratio":  "ratio",
	"evalcache.stage_lookups":    "count",
	"evalcache.plan_hit_ratio":   "ratio",
	"evalcache.plan_lookups":     "count",
	"perfdb.build_ms":            "ms",
	"perfdb.columns_built":       "count",
	"perfdb.columns_loaded":      "count",
	"store.objects":              "count",
	"store.bytes":                "bytes",
	"store.journal_bytes":        "bytes",
	"sched.assign_ms":            "ms",
	"sched.assign_ms_p50":        "ms",
	"sched.assign_ms_tail":       "ms",
	"sched.assign_calls":         "count",
	"sched.queue_depth_mean":     "jobs",
	"sched.placed":               "count",
	"sim.round_self_ms":          "ms",
	"sim.rounds":                 "count",
	"sim.finish_ms":              "ms",
	"trace.next_ms":              "ms",
	"trace.jobs":                 "count",
	"faults.preemptions":         "count",
	"faults.restarts":            "count",
	"faults.migrations":          "count",
	"faults.failed":              "count",
	"server.step_ms":             "ms",
	"server.step_self_ms":        "ms",
	"server.replay_ms":           "ms",
	"server.records":             "count",
	"server.query_ms_p50":        "ms",
	"server.query_ms_tail":       "ms",
	"server.recovery_ms_p50":     "ms",
	"loadgen.late_ms_p50":        "ms",
	"loadgen.late_ms_tail":       "ms",
	"go.alloc_mb":                "MB",
	"go.gc_cycles":               "count",
	"go.gc_pause_ms":             "ms",
	"spans.count":                "count",
	"spans.overhead_pct":         "%",
	"spans.overhead_latency_pct": "%",
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string // scratch directory inside the checkout, removed at exit
}

var workloads = map[string]func(runConfig) (*report, error){
	"plan-cold":  runPlanCold,
	"sim-deep":   func(rc runConfig) (*report, error) { return runSim(simDeep, rc) },
	"sim-faults": func(rc runConfig) (*report, error) { return runSim(simFaults, rc) },
	"daemon":     runDaemon,
}

func main() {
	name := flag.String("workload", "", "plan-cold | sim-deep | sim-faults | daemon")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "nominal run length; buys a fixed number of passes (see README.md)")
	traced := flag.Int("trace", 0, "1 = also run traced passes and print per-layer metrics")
	work := flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores and journals")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", strings.Join(sortedKeys(workloads), "|"))
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1, workdir: dir}
	before := sampleHost()
	rep, err := run(rc)
	after := sampleHost()
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	rep.detail["host"] = hostDelta(before, after)
	rep.e2e["setup_s"] = median(rep.setups)
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	if rc.trace {
		rep.finishTrace()
		path := filepath.Join(filepath.Dir(*work), "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := WriteSpans(path, rep.spans); err != nil {
			fatal(err)
		}
		rep.detail["spans_file"] = path
	}
	rep.print(os.Stdout, *name, rc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report collects one run's measurements.
type report struct {
	e2e        map[string]float64 // untraced passes
	tracedE2E  map[string]float64 // the same metrics from traced passes
	layers     map[string]float64
	detail     map[string]any // the workload's own metric names, tails and digests
	spans      []Span
	spanPasses int       // passes the spans cover
	setups     []float64 // CPU seconds per set-up repetition
	setupWall  []float64 // wall seconds per set-up repetition
	chk        checker
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}, detail: map[string]any{}}
}

// detailDist reports a distribution under the workload's own name: its
// median and its tail with percentile and sample count.
func (r *report) detailDist(name string, d *Dist) {
	r.detail[name+"_p50"] = d.Median()
	if t, ok := d.Tail(); ok {
		r.detail[name+"_tail"] = t.String()
	} else {
		r.detail[name+"_tail"] = fmt.Sprintf("n/a (n=%d)", t.Samples)
	}
}

// finishTrace derives the span count and, for a workload that ran
// traced passes (tracedE2E), the tracing overhead between its traced and
// untraced passes.
func (r *report) finishTrace() {
	r.layers["spans.count"] = float64(len(r.spans))
	if r.tracedE2E != nil {
		if t := r.tracedE2E["throughput_per_s"]; t > 0 {
			r.layers["spans.overhead_pct"] = 100 * (r.e2e["throughput_per_s"]/t - 1)
		}
		if u := r.e2e["latency_ms_p50"]; u > 0 {
			r.layers["spans.overhead_latency_pct"] = 100 * (r.tracedE2E["latency_ms_p50"]/u - 1)
		}
		r.detail["untraced"] = r.e2e
		r.detail["traced"] = r.tracedE2E
	}
	self := map[string]float64{}
	for layer, t := range SelfByLayer(r.spans) {
		self[layer+".self_ms"] = t / float64(max(1, r.spanPasses))
	}
	r.detail["self_time_per_pass"] = self
}

// print writes the detail line and then the result line, which must be
// the last line of standard output.
func (r *report) print(f *os.File, name string, rc runConfig) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	r.detail["workload"] = name
	r.detail["seed"] = rc.seed
	r.detail["setup_reps"] = len(r.setups)
	if len(r.setups) > 0 {
		r.detail["setup_s_range"] = []float64{slices.Min(r.setups), slices.Max(r.setups)}
		r.detail["setup_wall_s"] = median(r.setupWall)
	}
	r.detail["check_notes"] = r.chk.notes
	detail, err := json.Marshal(r.detail)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "detail %s\n", detail)

	metrics := map[string]metric{}
	if rc.trace {
		for k, unit := range perLayer {
			metrics[k] = metric{Value: r.layers[k], Unit: unit}
		}
	} else {
		for k, unit := range endToEnd {
			metrics[k] = metric{Value: r.e2e[k], Unit: unit}
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.chk.failed == 0, max(1, r.chk.attempted), r.chk.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", out)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON keeps every digit and turns a non-finite value, which
// JSON cannot carry, into 0.
func (m metric) MarshalJSON() ([]byte, error) {
	v := m.Value
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	unit, _ := json.Marshal(m.Unit)
	return []byte(`{"value":` + strconv.FormatFloat(v, 'g', -1, 64) + `,"unit":` + string(unit) + `}`), nil
}

// checker counts output checks against the operations they cover.
type checker struct {
	attempted, failed int
	notes             []string
}

func (c *checker) attempt(n int) { c.attempted += n }

// fail counts n failed operations (at least one) and keeps the reason.
func (c *checker) fail(n int, format string, args ...any) {
	c.failed += max(1, n)
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// setupReps is how many times set-up runs; setup_s is the median of the
// repetitions.
const setupReps = 5

// timeSetup runs set-up reps times, recording the process CPU time of
// each (setup_s is their median; their wall time goes to the detail
// line), and returns the last repetition's fixture. Set-up is CPU time
// for the reason the other gated figures are (README.md): the time the
// hypervisor steals moved its wall-clock median by 31% between sets of
// runs of one binary.
func timeSetup[T any](rep *report, reps int, setup func() (T, error)) (T, error) {
	var fx T
	for i := 0; i < reps; i++ {
		runtime.GC()
		start, cpu := time.Now(), processCPU()
		var err error
		fx, err = setup()
		if err != nil {
			return fx, err
		}
		rep.setups = append(rep.setups, (processCPU() - cpu).Seconds())
		rep.setupWall = append(rep.setupWall, time.Since(start).Seconds())
	}
	return fx, nil
}

// maxTracedPasses caps the traced passes of a run: spans of a few
// passes give the per-layer split, and every traced pass of the
// fault-churn workload adds ~20k spans to memory and the span file.
const maxTracedPasses = 4

// plan splits the run into passes of a fixed amount of work: the number
// of passes depends only on --seconds, never on elapsed time. A traced
// run spends half of them untraced and the other half, at most
// maxTracedPasses, traced; both measure the same per-pass work.
func (r *report) plan(rc runConfig, passSeconds float64) (untraced, traced int) {
	n := passCount(rc.seconds, passSeconds)
	if !rc.trace {
		return n, 0
	}
	untraced = max(1, n/2)
	return untraced, min(maxTracedPasses, max(1, n-untraced))
}

// passCount is the number of passes of passSeconds each that a run of
// the given length buys, at least one.
func passCount(seconds, passSeconds float64) int {
	return max(1, int(math.Round(seconds/passSeconds)))
}

// passBoundary runs before every pass: it collects garbage left by the
// previous pass, so every pass starts from the same heap.
func (r *report) passBoundary() { runtime.GC() }

// goStats measures the Go runtime's allocation and GC work over a phase.
type goStats struct{ before runtime.MemStats }

func startGoStats() *goStats {
	g := &goStats{}
	runtime.ReadMemStats(&g.before)
	return g
}

// stop stores the phase's per-pass allocation and GC figures.
func (g *goStats) stop(m map[string]float64, passes int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(passes)
	m["go.alloc_mb"] = float64(after.TotalAlloc-g.before.TotalAlloc) / (1 << 20) / n
	m["go.gc_cycles"] = float64(after.NumGC-g.before.NumGC) / n
	m["go.gc_pause_ms"] = float64(after.PauseTotalNs-g.before.PauseTotalNs) / 1e6 / n
}

// hostSample is a reading of the process's CPU time and of the host's
// CPU accounting, so a run can report how much of its wall time the
// hypervisor took away (steal) — the main source of run-to-run spread
// on a shared virtual machine.
type hostSample struct {
	wall       time.Time
	procCPU    time.Duration
	steal, all float64 // host jiffies, summed over CPUs
}

func sampleHost() hostSample {
	s := hostSample{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(data), "\n")
		for i, f := range strings.Fields(line)[1:] {
			v, _ := strconv.ParseFloat(f, 64)
			if i < 8 { // user nice system idle iowait irq softirq steal
				s.all += v
			}
			if i == 7 {
				s.steal = v
			}
		}
	}
	return s
}

// hostDelta describes the interval between two samples.
func hostDelta(a, b hostSample) map[string]float64 {
	out := map[string]float64{
		"wall_s":     b.wall.Sub(a.wall).Seconds(),
		"proc_cpu_s": (b.procCPU - a.procCPU).Seconds(),
	}
	if d := b.all - a.all; d > 0 {
		out["host_steal_pct"] = 100 * (b.steal - a.steal) / d
	}
	return out
}

// threadCPU returns the CPU time the calling OS thread has used; the
// caller locks its goroutine to the thread (runtime.LockOSThread), so two
// readings bracket only its own work.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU returns the CPU time every thread of the process has used,
// the garbage collector's included.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// cpuClock reads a CPU-time clock. With paravirtual steal accounting,
// time the hypervisor takes from a vCPU is not counted. It exits the
// benchmark if the clock cannot be read, since a zero would pass for a
// measurement.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		fatal(fmt.Errorf("CPU clock %d: %w", id, errno))
	}
	return time.Duration(ts.Nano())
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
