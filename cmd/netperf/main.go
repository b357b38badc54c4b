// Command netperf regenerates Figure 7 of the paper: average network
// transit time as a function of traffic intensity for the candidate
// switch configurations, from the §4.1 queueing model, optionally
// cross-checked against the cycle-accurate simulator.
//
// Usage:
//
//	netperf [-n 4096] [-points 14] [-maxp 0.35] [-sim] [-simports 64]
//
// With -sim, each analytic curve is accompanied by simulated transit
// times measured on a (necessarily smaller) instance of the same
// configuration driven with uniform random fetch-and-add traffic.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"time"

	"ultracomputer/internal/analytic"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/serve"
	"ultracomputer/internal/sim"
	"ultracomputer/internal/trace"
)

func main() {
	n := flag.Int("n", 4096, "machine size (PE and MM count) for the analytic model")
	points := flag.Int("points", 14, "sweep points per curve")
	maxP := flag.Float64("maxp", 0.35, "maximum traffic intensity (messages per PE per cycle)")
	simulate := flag.Bool("sim", false, "cross-check with the cycle simulator")
	simPorts := flag.Int("simports", 64, "simulated machine size (power of the switch radix)")
	plot := flag.Bool("plot", false, "render the curves as an ASCII chart")
	csvOut := flag.String("csv", "", "write the curves as CSV to this file (- for stdout)")
	traceOut := flag.String("trace", "", "run one instrumented simulation and write a Chrome trace_event JSON to this file")
	metricsOut := flag.String("metrics", "", "run one instrumented simulation and write sampled per-stage metrics as JSONL to this file")
	sampleEvery := flag.Int64("sample-every", 64, "network cycles between metrics samples")
	hot := flag.Float64("hot", 0, "fraction of the instrumented run's traffic aimed at a single hot word (§3.1.2 hot spot)")
	rate := flag.Float64("rate", 0.25, "traffic intensity of the instrumented run (requests per PE per cycle)")
	combining := flag.Bool("combining", true, "combine requests in the instrumented run (disable to expose raw tree saturation)")
	measure := flag.Int64("measure", 8000, "measured cycles of the instrumented run (after a 1000-cycle warmup)")
	serveAddr := flag.String("serve", "", "run the instrumented simulation with live telemetry on this address (/metrics, /snapshot.json, /events, /trace/flight)")
	confThreshold := flag.Float64("conformance-threshold", 0, "measured/predicted round-trip drift ratio that raises the model-conformance alert (0 = default)")
	reqRate := flag.Float64("reqtrace", 0, "fraction of the instrumented run's requests to trace causally (0 = off, 1 = all)")
	spansOut := flag.String("spans", "", "write the instrumented run's request-trace spans as JSONL to this file (implies -reqtrace 1 when the rate is unset)")
	flightDir := flag.String("flight-dir", "", "directory for alert-triggered flight-recorder dumps, flight-<cycle>.jsonl (implies -reqtrace 1 when the rate is unset)")
	benchOut := flag.String("bench", "", "run the simulator benchmark suite and write JSON results to this file")
	flag.Parse()

	if *benchOut != "" {
		if err := bench(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "netperf:", err)
			os.Exit(1)
		}
		return
	}

	if *traceOut != "" || *metricsOut != "" || *serveAddr != "" || *reqRate > 0 || *spansOut != "" || *flightDir != "" {
		opts := observeOpts{
			tracePath: *traceOut, metricsPath: *metricsOut, serveAddr: *serveAddr,
			every: *sampleEvery, ports: *simPorts, rate: *rate, hot: *hot,
			combining: *combining, measure: *measure, threshold: *confThreshold,
			reqRate: *reqRate, spansPath: *spansOut, flightDir: *flightDir,
		}
		if err := observe(opts); err != nil {
			fmt.Fprintln(os.Stderr, "netperf:", err)
			os.Exit(1)
		}
		return
	}

	if *csvOut != "" {
		if err := writeCSV(*csvOut, *n, *maxP, *points); err != nil {
			fmt.Fprintln(os.Stderr, "netperf:", err)
			os.Exit(1)
		}
		if *csvOut != "-" {
			fmt.Printf("wrote %s\n", *csvOut)
		}
		return
	}

	fmt.Printf("Figure 7 — transit times (network cycles) for an n=%d machine, B = k/m = 1\n\n", *n)
	if *plot {
		var series []sim.Series
		for _, cfg := range analytic.Figure7Configs(*n) {
			series = append(series, analytic.Figure7Series(cfg, *maxP, 60))
		}
		fmt.Println(analytic.AsciiPlot("Transit time T vs traffic intensity p", series, 64, 20, 40))
	}
	for _, cfg := range analytic.Figure7Configs(*n) {
		fmt.Printf("%-14s  cost=%.3f  capacity=%.3f  bandwidth=%.2f\n",
			cfg.String(), cfg.Cost(), cfg.Capacity(), cfg.Bandwidth())
		series := analytic.Figure7Series(cfg, *maxP, *points)
		for _, pt := range series.Points {
			fmt.Printf("  p=%.3f  T=%7.2f\n", pt.X, pt.Y)
		}
		if *simulate {
			simCheck(cfg, *simPorts, *maxP)
		}
		fmt.Println()
	}
}

// observeOpts configures one instrumented simulation run.
type observeOpts struct {
	tracePath, metricsPath, serveAddr string
	every                             int64
	ports                             int
	rate, hot                         float64
	combining                         bool
	measure                           int64
	threshold                         float64
	reqRate                           float64
	spansPath, flightDir              string
}

// observe drives one simulated run under synthetic traffic with the
// event probe and metrics sampler attached, then writes the requested
// trace and metrics files. With -hot, tree saturation toward the hot
// module shows up in the per-stage occupancy series; with -serve the
// same run is watchable live over HTTP, including the analytic
// model-conformance drift that hot spots trip.
func observe(o observeOpts) error {
	const k = 2
	stages := 0
	for n := 1; n < o.ports; n *= k {
		stages++
	}
	cfg := network.Config{K: k, Stages: stages, Combining: o.combining}
	if err := cfg.Validate(); err != nil {
		return err
	}
	w := trace.Workload{Rate: o.rate, Hash: true, HotFraction: o.hot, HotWord: 0, Seed: 17}
	var rec *obs.Recorder
	if o.tracePath != "" || o.serveAddr != "" {
		rec = obs.NewRecorder(obs.DefaultRecorderCapacity)
		w.Probe = rec
	}
	var sampler *obs.Sampler
	if o.metricsPath != "" || o.serveAddr != "" || o.flightDir != "" {
		sampler = obs.NewSampler(o.every)
		w.Sampler = sampler
	}
	var tracer *reqtrace.Tracer
	if o.reqRate > 0 || o.spansPath != "" || o.flightDir != "" {
		r := o.reqRate
		if r == 0 {
			r = 1
		}
		tracer = reqtrace.New(reqtrace.Config{Rate: r})
		w.Tracer = tracer
	}
	var feed *live.Feed
	var srv *live.Server
	if o.serveAddr != "" || o.flightDir != "" {
		if o.serveAddr != "" {
			srv = live.NewServer()
			if tracer != nil {
				srv.SetFlight(tracer)
			}
		}
		feed = &live.Feed{
			Server:    srv,
			Monitor:   live.NewMonitor(live.ModelFor(cfg, 0, o.threshold)),
			Recorder:  rec,
			Tracer:    tracer,
			FlightDir: o.flightDir,
		}
		feed.Attach(sampler)
		if srv != nil {
			hs, bound, err := srv.Start(o.serveAddr)
			if err != nil {
				return err
			}
			defer hs.Close()
			fmt.Printf("telemetry: http://%s/metrics\n", bound)
		}
	}
	r := trace.Run(cfg, w, 1000, o.measure)
	fmt.Printf("instrumented run: %d ports, %d stages, rate=%.3f hot=%.2f\n  %s\n",
		cfg.Ports(), stages, o.rate, o.hot, r)
	if feed != nil {
		feed.Finish()
		if st := feed.Last(); st != nil && st.Conformance != nil {
			c := st.Conformance
			fmt.Printf("model conformance: %s\n", c)
			if c.Alerts > 0 {
				fmt.Printf("  %d alerting windows (drift > %.2f or saturation)\n", c.Alerts, c.Threshold)
			}
		}
	}
	if o.tracePath != "" {
		if err := writeFile(o.tracePath, func(f io.Writer) error {
			return obs.WriteChromeTrace(f, rec.Events())
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", o.tracePath, rec.Len())
	}
	if o.metricsPath != "" {
		if err := writeFile(o.metricsPath, sampler.WriteJSONL); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d samples)\n%s", o.metricsPath, len(sampler.Snapshots()), sampler.Summary())
	}
	if tracer != nil {
		fmt.Printf("request tracing: %d spans completed, %d combine links, mean latency %.1f cycles\n",
			tracer.Completed(), tracer.CombineLinks(), tracer.MeanLatency())
		if o.spansPath != "" {
			if err := writeFile(o.spansPath, tracer.WriteSpansJSONL); err != nil {
				return err
			}
			fmt.Printf("wrote %s (inspect with: tables -spans %s)\n", o.spansPath, o.spansPath)
		}
		if feed != nil {
			for _, p := range feed.FlightDumps() {
				fmt.Printf("flight recorder dumped %s\n", p)
			}
		}
	}
	if o.serveAddr != "" {
		fmt.Println("run finished; serving the final snapshot until interrupted (Ctrl-C)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	return nil
}

// benchRow is one benchmark measurement: a (configuration, load) pair
// driven for a fixed seeded run, reporting simulator speed and the
// latency the simulated network delivered.
type benchRow struct {
	Config       string  `json:"config"`
	K            int     `json:"k"`
	Copies       int     `json:"copies"`
	Ports        int     `json:"ports"`
	Workers      int     `json:"workers,omitempty"`
	Rate         float64 `json:"rate"`
	ReqtraceRate float64 `json:"reqtrace_rate,omitempty"`
	Spans        int64   `json:"spans,omitempty"`
	Speedup      float64 `json:"speedup_vs_serial,omitempty"`
	// OverheadPct is the wall-clock cost relative to the matching
	// baseline row (profiler rows only).
	OverheadPct  float64 `json:"overhead_pct,omitempty"`
	Cycles       int64   `json:"cycles"`
	WallSeconds  float64 `json:"wall_seconds"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Injected     int64   `json:"injected"`
	Served       int64   `json:"served"`
	Throughput   float64 `json:"throughput"`
	Combines     int64   `json:"combines"`
	RTMean       float64 `json:"rt_mean"`
	RTP50        float64 `json:"rt_p50"`
	RTP99        float64 `json:"rt_p99"`
}

// bench runs the fixed benchmark suite and writes the rows as JSON: the
// Figure 7 candidate switch shapes at two stable loads on a 64-port
// machine (comparable with earlier commits), tracing and profiler
// overhead rows, ultraserve session scaling, and one 256-port row.
// Seeded runs make the traffic identical between invocations, so only
// wall-clock varies.
func bench(path string) error {
	const (
		ports   = 64
		warmup  = 2000
		measure = 20000
	)
	shapes := []struct {
		name      string
		k, copies int
	}{
		{"k2-d1", 2, 1},
		{"k2-d2", 2, 2},
		{"k4-d1", 4, 1},
	}
	stagesFor := func(k, ports int) int {
		stages := 0
		for n := 1; n < ports; n *= k {
			stages++
		}
		return stages
	}
	runOne := func(cfg network.Config, name string, copies int, rate float64, warmup, measure int64, tr *reqtrace.Tracer, pf *prof.Profiler) (benchRow, error) {
		if err := cfg.Validate(); err != nil {
			return benchRow{}, err
		}
		w := trace.Workload{Rate: rate, Hash: true, Seed: 17, Tracer: tr, Profiler: pf}
		start := time.Now()
		r := trace.Run(cfg, w, warmup, measure)
		wall := time.Since(start).Seconds()
		row := benchRow{
			Config: name, K: cfg.K, Copies: copies, Ports: cfg.Ports(),
			Rate:   rate,
			Cycles: warmup + measure, WallSeconds: wall,
			CyclesPerSec: float64(warmup+measure) / wall,
			Injected:     r.Injected, Served: r.Served,
			Throughput: r.Throughput, Combines: r.Combines,
			RTMean: r.RoundTrip.Value(), RTP50: r.RTP50, RTP99: r.RTP99,
		}
		if tr != nil {
			row.ReqtraceRate = tr.Rate()
			row.Spans = tr.Completed()
		}
		fmt.Printf("%-14s rate=%.2f  %8.0f cycles/s  rt p50=%.0f p99=%.0f  thpt=%.4f\n",
			row.Config, row.Rate, row.CyclesPerSec, row.RTP50, row.RTP99, row.Throughput)
		return row, nil
	}

	var rows []benchRow
	for _, s := range shapes {
		cfg := network.Config{K: s.k, Stages: stagesFor(s.k, ports), Copies: s.copies, Combining: true}
		for _, rate := range []float64{0.10, 0.20} {
			row, err := runOne(cfg, s.name, s.copies, rate, warmup, measure, nil, nil)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
	}

	// Tracing overhead: the k2-d1 shape at the higher load with the
	// request tracer attached at rate 0 (the nil-context fast path the
	// zero-alloc test pins) and at a 1% sampling rate, beside the
	// tracer-free row above. The three rows bound what -reqtrace costs.
	trCfg := network.Config{K: 2, Stages: stagesFor(2, ports), Combining: true}
	for _, tc := range []struct {
		name string
		rate float64
	}{{"k2-d1+tr0", 0}, {"k2-d1+tr1%", 0.01}} {
		tr := reqtrace.New(reqtrace.Config{Rate: tc.rate})
		row, err := runOne(trCfg, tc.name, 1, 0.20, warmup, measure, tr, nil)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}

	// Profiler overhead on the synthetic workload: attached-but-disabled
	// (every hook site sees a nil sink — should cost nothing) and fully
	// enabled (heatmap + combine recording on every request).
	for _, pc := range []struct {
		name string
		on   bool
	}{{"k2-d1+prof-off", false}, {"k2-d1+prof", true}} {
		pf := prof.New(prof.Config{PEs: ports})
		pf.SetEnabled(pc.on)
		row, err := runOne(trCfg, pc.name, 1, 0.20, warmup, measure, nil, pf)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}

	// Guest-machine profiler overhead: a hot-spot fetch-and-add loop on
	// 8 PEs, run bare, with the profiler attached but disabled, and with
	// it enabled. OverheadPct on the prof rows is relative to the bare
	// row — the "<5% enabled, zero when off" contract.
	guestRows, err := benchGuest()
	if err != nil {
		return err
	}
	rows = append(rows, guestRows...)

	// Multi-tenant service overhead: aggregate guest cycles/sec at 1, 4
	// and 8 concurrent ultraserve sessions of the same k2-d1 machine.
	// Speedup on the s4/s8 rows is aggregate rate relative to the lone
	// session — fair-share scheduling overhead shows up as it dropping
	// below 1.
	serveRows, err := benchServe()
	if err != nil {
		return err
	}
	rows = append(rows, serveRows...)

	// One larger machine: 256 ports at the same load.
	const (
		bigPorts   = 256
		bigWarmup  = 500
		bigMeasure = 4000
		bigRate    = 0.20
	)
	bigCfg := network.Config{K: 2, Stages: stagesFor(2, bigPorts), Combining: true}
	bigRow, err := runOne(bigCfg, "k2-big", 1, bigRate, bigWarmup, bigMeasure, nil, nil)
	if err != nil {
		return err
	}
	rows = append(rows, bigRow)

	return writeFile(path, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Ports      int        `json:"ports"`
			Warmup     int64      `json:"warmup_cycles"`
			Measure    int64      `json:"measure_cycles"`
			Seed       uint64     `json:"seed"`
			HostCPUs   int        `json:"host_cpus"`
			GoMaxProcs int        `json:"gomaxprocs"`
			Rows       []benchRow `json:"rows"`
		}{ports, warmup, measure, 17, runtime.NumCPU(), runtime.GOMAXPROCS(0), rows})
	})
}

// benchServe measures the multi-tenant service's scheduling cost:
// N concurrent sessions of one k2-d1 guest machine (k=2, 64 ports,
// 16 PEs hammering a shared word with fetch-and-adds), driven directly
// through internal/serve — sessions share the service's scheduler
// worker budget in round-robin cycle slices exactly as API clients
// would, without HTTP in the measured path.
func benchServe() ([]benchRow, error) {
	cfg := serve.Config{
		K: 2, Stages: 6, PEs: 16,
		Limit: 5_000_000,
		Program: `
        li   r1, 100
        li   r2, 1
        li   r6, 2000
loop:   faa  r3, 0(r1), r2
        add  r4, r4, r3
        addi r5, r5, 1
        blt  r5, r6, loop
        halt
`,
	}
	var rows []benchRow
	var lone float64
	for _, n := range []int{1, 4, 8} {
		svc := serve.NewService(serve.Limits{MaxSessions: n})
		start := time.Now()
		sessions := make([]*serve.Session, 0, n)
		for i := 0; i < n; i++ {
			s, err := svc.CreateSession(fmt.Sprintf("bench-%d", i))
			if err != nil {
				return nil, err
			}
			if err := s.StageCandidate(cfg); err != nil {
				return nil, err
			}
			if _, err := s.CommitCandidate(""); err != nil {
				return nil, err
			}
			if err := s.StartRun(); err != nil {
				return nil, err
			}
			sessions = append(sessions, s)
		}
		var total int64
		for _, s := range sessions {
			for {
				info := s.Info()
				if info.State == serve.StateDone {
					total += info.Cycles
					break
				}
				if info.State == serve.StateFailed {
					return nil, fmt.Errorf("bench session %s failed: %s", info.ID, info.Error)
				}
				time.Sleep(time.Millisecond)
			}
		}
		wall := time.Since(start).Seconds()
		svc.Drain()
		row := benchRow{
			Config: fmt.Sprintf("serve-s%d", n), K: 2, Copies: 1, Ports: 64,
			Workers: svc.Limits().Workers,
			Cycles:  total, WallSeconds: wall,
			CyclesPerSec: float64(total) / wall,
		}
		if n == 1 {
			lone = row.CyclesPerSec
		} else if lone > 0 {
			row.Speedup = row.CyclesPerSec / lone
		}
		fmt.Printf("%-9s sessions=%d  %8.0f aggregate cycles/s  wall=%.3fs\n",
			row.Config, n, row.CyclesPerSec, row.WallSeconds)
		rows = append(rows, row)
	}
	return rows, nil
}

// benchGuest measures the guest profiler's wall-clock cost on a real
// machine run (not the synthetic driver): 8 PEs hammering one shared
// word with fetch-and-adds through a combining k=2, 4-stage network.
// Each configuration takes the best of three runs to shed scheduler
// noise.
func benchGuest() ([]benchRow, error) {
	prog := isa.MustAssemble(`
        li   r1, 100
        li   r2, 1
        li   r6, 20000
loop:   faa  r3, 0(r1), r2
        add  r4, r4, r3
        addi r5, r5, 1
        blt  r5, r6, loop
        halt
`)
	run := func(name string, attach, on bool) (benchRow, error) {
		var best benchRow
		for rep := 0; rep < 3; rep++ {
			cfg := machine.Config{
				Net:     network.Config{K: 2, Stages: 4, Combining: true},
				Hashing: true,
				PEs:     8,
			}
			m, _, err := machine.Load(cfg, prog, machine.LoadOptions{})
			if err != nil {
				return benchRow{}, err
			}
			if attach {
				pf := prof.New(prof.Config{PEs: 8, Programs: []*isa.Program{prog}, File: "bench.s"})
				pf.SetEnabled(on)
				m.SetProfiler(pf)
			}
			start := time.Now()
			m.MustRun(100_000_000)
			wall := time.Since(start).Seconds()
			if rep == 0 || wall < best.WallSeconds {
				best = benchRow{
					Config: name, K: 2, Copies: 1, Ports: 16,
					Cycles:      m.Cycles(),
					WallSeconds: wall, CyclesPerSec: float64(m.Cycles()) / wall,
				}
			}
		}
		return best, nil
	}
	base, err := run("guest", false, false)
	if err != nil {
		return nil, err
	}
	rows := []benchRow{base}
	for _, pc := range []struct {
		name string
		on   bool
	}{{"guest+prof-off", false}, {"guest+prof", true}} {
		row, err := run(pc.name, true, pc.on)
		if err != nil {
			return nil, err
		}
		row.OverheadPct = 100 * (row.WallSeconds - base.WallSeconds) / base.WallSeconds
		fmt.Printf("%-15s %8.0f cycles/s  overhead %+.1f%%\n", row.Config, row.CyclesPerSec, row.OverheadPct)
		rows = append(rows, row)
	}
	return rows, nil
}

func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCSV emits one row per (config, p) point: config, p, T.
func writeCSV(path string, n int, maxP float64, points int) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintln(w, "config,k,m,d,p,transit_cycles")
	for _, cfg := range analytic.Figure7Configs(n) {
		for _, pt := range analytic.Figure7Series(cfg, maxP, points).Points {
			fmt.Fprintf(w, "%q,%d,%d,%d,%.4f,%.4f\n",
				cfg.String(), cfg.K, cfg.M, cfg.D, pt.X, pt.Y)
		}
	}
	return nil
}

// simCheck runs the simulator at a few loads for a scaled-down instance
// of cfg and prints measured one-way transit beside the analytic value
// for the same (smaller) machine.
func simCheck(cfg analytic.NetConfig, ports int, maxP float64) {
	stages := 0
	for n := 1; n < ports; n *= cfg.K {
		stages++
	}
	small := analytic.NetConfig{N: ports, K: cfg.K, M: 3, D: cfg.D}
	netCfg := network.Config{K: cfg.K, Stages: stages, Copies: cfg.D, Combining: true}
	if err := netCfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "  sim skipped: %v\n", err)
		return
	}
	fmt.Printf("  simulated (%d ports, %d stages; all 3-packet messages, so m=3 analytically):\n",
		netCfg.Ports(), stages)
	for _, frac := range []float64{0.1, 0.3, 0.6} {
		p := frac * maxP
		if p >= 0.9*small.Capacity() {
			continue
		}
		r := trace.Run(netCfg, trace.Workload{Rate: p, Hash: true, Seed: 17}, 2000, 8000)
		fmt.Printf("    p=%.3f  simulated T=%6.2f   analytic T=%6.2f\n",
			p, r.OneWay.Value(), analytic.TransitTime(small, p))
	}
}
