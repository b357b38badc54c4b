// Command perfbench is the repository's benchmark: it runs one workload
// against the simulator's public Go API, times it from outside, checks
// the simulated outputs, and prints one JSON result line. It runs from
// the repository root, where it reads the shipped guest programs and
// perfbench/expected.json. See README.md for the workloads, the metrics
// and how each layer metric maps to the end-to-end metric it should move.
//
//	perfbench --workload net-light --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced jobs; --trace 1
// interleaves untraced and traced jobs and reports the per-layer
// metrics. Human-readable lines come first; the last line of standard
// output is the JSON result.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// shippedSeed is the seed whose simulated outputs expected.json pins.
const shippedSeed = 1

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in the
// same order; a test keeps the two in step.
var endToEnd = []metricDef{
	{"sim_cycles_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"network.step_ns_per_cycle", "ns"},
	{"network.step_ns_per_port_cycle", "ns"},
	{"network.inject_ns_per_call", "ns"},
	{"network.collect_ns_per_cycle", "ns"},
	{"network.mm_dequeue_ns_per_cycle", "ns"},
	{"network.inject_refused_frac", "frac"},
	{"network.combines_per_kserved", "1/kserved"},
	{"network.queue_occ_mean", "packets"},
	{"memory.step_ns_per_cycle", "ns"},
	{"memory.served_per_cycle", "1/cycle"},
	{"machine.step_ns_per_cycle", "ns"},
	{"machine.net_self_ns_per_cycle", "ns"},
	{"machine.done_ns_per_cycle", "ns"},
	{"machine.build_ms", "ms"},
	{"machine.report_ms", "ms"},
	{"pe.tick_ns_per_pe_cycle", "ns"},
	{"pe.collect_ns_per_cycle", "ns"},
	{"pe.stall_frac", "frac"},
	{"isa.tick_ns_per_instr", "ns"},
	{"isa.assemble_ms", "ms"},
	{"cache.hit_ratio", "frac"},
	{"cache.writebacks_per_kinstr", "1/kinstr"},
	{"engine.run_calls_per_cycle", "1/cycle"},
	{"serve.create_ms_p50", "ms"},
	{"serve.dry_run_ms_p50", "ms"},
	{"serve.commit_ms_p50", "ms"},
	{"serve.rollback_ms_p50", "ms"},
	{"serve.info_ms_p50", "ms"},
	{"serve.metrics_ms_p50", "ms"},
	{"serve.report_ms_p50", "ms"},
	{"serve.delete_ms_p50", "ms"},
	{"serve.ctl_ms_p50", "ms"},
	{"serve.ctl_ms_p99", "ms"},
	{"serve.step_ns_per_cycle", "ns"},
	{"serve.session_step_ns_per_cycle", "ns"},
	{"serve.failed_requests", "count"},
	{"runtime.alloc_bytes_per_cycle", "B"},
	{"runtime.gc_cycles_per_job", "count"},
	{"runtime.gc_pause_ms_per_job", "ms"},
	{"trace.driver_ns_per_cycle", "ns"},
	{"bench.trace_overhead_frac", "frac"},
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(*bench){
	"net-light":      func(b *bench) { runNet(b, netLight) },
	"net-hot":        func(b *bench) { runNet(b, netHot) },
	"machine-asm":    runMachineAsm,
	"serve-sessions": runSessions,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: net-light, net-hot, machine-asm or serve-sessions")
	seed := fs.Uint64("seed", shippedSeed, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics from untraced jobs; 1: per-layer metrics from a traced run")
	writeExpected := fs.Bool("write-expected", false, "record this run's simulated outputs in perfbench/expected.json (shipped seed, --trace 0 only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if *writeExpected && (*seed != shippedSeed || *traceFlag != 0) {
		fmt.Fprintln(os.Stderr, "perfbench: --write-expected needs the shipped seed and --trace 0")
		return 2
	}
	exp, err := loadExpected(filepath.Join("perfbench", "expected.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *writeExpected {
		delete(exp.Workloads, *name) // re-record this workload's outputs from scratch
	}
	b := &bench{
		name: *name, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		out: bufio.NewWriter(stdout), metrics: map[string]metric{},
		expected: exp, record: *writeExpected,
	}
	fn(b)
	if b.record {
		if err := exp.save(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return b.emit()
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run: its settings, the failure tally and the metrics.
type bench struct {
	name    string
	seed    uint64
	seconds float64
	traced  bool
	out     *bufio.Writer

	expected *expectations
	record   bool

	attempted, failed int64
	notes             []string
	metrics           map[string]metric
	info              []string
}

// fail counts one failed operation and keeps its description.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.notes) < 20 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation and fails it unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// guard runs fn, turning a panic inside the program into a failed
// operation instead of a crashed run.
func (b *bench) guard(what string, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			b.attempted++
			b.fail("%s: panic: %v\n%s", what, r, debug.Stack())
		}
	}()
	fn()
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.metrics[name] = metric{Value: v} }

// note adds a human-readable line to the report.
func (b *bench) note(format string, args ...any) {
	b.info = append(b.info, fmt.Sprintf(format, args...))
}

// loop runs job until the run's measurement time is spent, at least min
// times, collecting garbage before each job so no job pays for its
// predecessor's heap.
func (b *bench) loop(min int, job func(i int)) {
	start := now()
	budget := int64(b.seconds * 1e9)
	for i := 0; i < min || now()-start < budget; i++ {
		runtime.GC()
		b.guard(fmt.Sprintf("%s job %d", b.name, i), func() { job(i) })
	}
}

// emit prints the human-readable report and the JSON result line, and
// returns the exit code.
func (b *bench) emit() int {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	host, _ := json.Marshal(map[string]any{"host": map[string]any{
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}})
	fmt.Fprintf(b.out, "%s\n", host)
	fmt.Fprintf(b.out, "workload %s seed %d trace %v\n", b.name, b.seed, b.traced)
	for _, l := range b.info {
		fmt.Fprintln(b.out, l)
	}
	out := map[string]metric{}
	for _, d := range defs {
		m, ok := b.metrics[d.name]
		if !ok && !b.traced {
			b.fail("metric %s not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s is %v", d.name, m.Value)
			m.Value, ok = 0, false
		}
		m.Unit = d.unit
		out[d.name] = m
		if ok {
			fmt.Fprintf(b.out, "  %-34s %14s %s\n", d.name, strconv.FormatFloat(m.Value, 'g', 6, 64), d.unit)
		}
	}
	for _, n := range b.notes {
		fmt.Fprintln(b.out, "FAILED:", n)
	}
	if b.attempted == 0 {
		b.fail("no operation attempted")
		b.attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(b.out, "%s\n", line)
	if err := b.out.Flush(); err != nil {
		return 1
	}
	return 0
}

// memSnap is the slice of runtime.MemStats the runtime layer reports,
// or a difference of two readings.
type memSnap struct{ alloc, gcs, pauseNs uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs}
}

// since is the activity between an earlier reading and m.
func (m memSnap) since(before memSnap) memSnap {
	return memSnap{m.alloc - before.alloc, m.gcs - before.gcs, m.pauseNs - before.pauseNs}
}

func (m memSnap) plus(o memSnap) memSnap {
	return memSnap{m.alloc + o.alloc, m.gcs + o.gcs, m.pauseNs + o.pauseNs}
}

// runtimeAcc accumulates the runtime layer over untraced jobs.
type runtimeAcc struct {
	sum          memSnap
	cycles, jobs int64
}

// add records one job's runtime activity, taken over its timed windows
// only, so the collections the benchmark forces between jobs do not count.
func (r *runtimeAcc) add(d memSnap, cycles int64) {
	r.sum = r.sum.plus(d)
	r.cycles += cycles
	r.jobs++
}

func (r *runtimeAcc) report(b *bench) {
	b.set("runtime.alloc_bytes_per_cycle", ratio(float64(r.sum.alloc), float64(r.cycles)))
	b.set("runtime.gc_cycles_per_job", ratio(float64(r.sum.gcs), float64(r.jobs)))
	b.set("runtime.gc_pause_ms_per_job", ratio(float64(r.sum.pauseNs)/1e6, float64(r.jobs)))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// finishEndToEnd records the metrics every untraced run reports: the
// simulation rate from the median job time, the median set-up time and
// the peak RSS.
func (b *bench) finishEndToEnd(cyclesPerJob float64, jobNs, setupNs []float64) {
	b.set("sim_cycles_per_s", cyclesPerJob/(median(jobNs)/1e9))
	b.set("setup_s", median(setupNs)/1e9)
	rss, err := peakRSSMB()
	if err != nil {
		b.fail("peak RSS: %v", err)
		return
	}
	b.set("peak_rss_mb", rss)
	b.note("jobs %d, ms p10/p25/p50/p75/p90: %.4g %.4g %.4g %.4g %.4g; set-up samples %d", len(jobNs),
		quantile(jobNs, 0.1)/1e6, quantile(jobNs, 0.25)/1e6, median(jobNs)/1e6,
		quantile(jobNs, 0.75)/1e6, quantile(jobNs, 0.9)/1e6, len(setupNs))
}

// subSeed derives an independent seed for one input stream of the run
// (traffic, hot word, generated kernel, session program) from the run
// seed, so every input follows from --seed alone.
func subSeed(seed uint64, stream string) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(stream) {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}
