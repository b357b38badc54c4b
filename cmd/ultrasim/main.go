// Command ultrasim runs an assembly program on the simulated
// Ultracomputer, one copy per PE (SPMD; use rdpe to diverge), and prints
// the machine report and requested memory/register dumps.
//
// Usage:
//
//	ultrasim -pes 8 -k 2 -stages 4 prog.s
//	ultrasim -pes 4 -dump 0:16 -reg 1,2,3 prog.s
//	ultrasim -pes 64 -stages 6 -serve :8080 prog.s   # live telemetry
//
// The instruction set is documented in internal/isa; see examples/ for
// sample programs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"ultracomputer/internal/isa"
	"ultracomputer/internal/lint/guest/mc"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/live"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/serve"
)

func main() {
	pes := flag.Int("pes", 4, "processing elements")
	k := flag.Int("k", 2, "switch radix")
	stages := flag.Int("stages", 4, "network stages (ports = k^stages)")
	combining := flag.Bool("combining", true, "enable request combining")
	hashing := flag.Bool("hashing", true, "hash addresses over memory modules")
	local := flag.Int("local", 4096, "private memory words per PE")
	lintFlag := flag.Bool("lint", false, "run the guest coherence/race lint before the program; findings abort the run")
	verifyFlag := flag.Bool("verify", false, "model-check the program exhaustively at 2 PEs (`;mc:` properties, deadlock, lost updates) before the run; a violation prints its schedule and aborts")
	limit := flag.Int64("limit", 100_000_000, "network-cycle limit")
	dump := flag.String("dump", "", "shared memory range to print, lo:hi")
	regs := flag.String("reg", "", "comma-separated integer registers to print per PE")
	topo := flag.Bool("topo", false, "print the network wiring (the paper's Figure 2) and exit")
	disasm := flag.Bool("disasm", false, "print the assembled program's disassembly and exit")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file (open in Perfetto)")
	metricsOut := flag.String("metrics", "", "write sampled per-stage metrics as JSONL to this file")
	sampleEvery := flag.Int64("sample-every", 64, "network cycles between metrics samples")
	serveAddr := flag.String("serve", "", "serve live telemetry on this address while the run executes (/metrics, /snapshot.json, /events, /trace/flight, /healthz, /debug/pprof/)")
	confThreshold := flag.Float64("conformance-threshold", 0, "measured/predicted round-trip drift ratio that raises the model-conformance alert (0 = default)")
	reqRate := flag.Float64("reqtrace", 0, "fraction of memory requests to trace causally PE->switches->MM->PE (0 = off, 1 = all)")
	profFlag := flag.Bool("prof", false, "profile the guest program: cycle-exact attribution of every PE cycle to its pc and state (execute / cache-hit / memory-wait / net-full-stall / spin)")
	profOut := flag.String("prof-out", "", "write the guest profile to this file: .pb.gz/.pprof selects gzipped pprof protobuf (go tool pprof), anything else JSONL (tables -prof); implies -prof")
	spansOut := flag.String("spans", "", "write completed request-trace spans as JSONL to this file (implies -reqtrace 1 when the rate is unset)")
	flightDir := flag.String("flight-dir", "", "directory for alert-triggered flight-recorder dumps, flight-<cycle>.jsonl (implies -reqtrace 1 when the rate is unset)")
	configPath := flag.String("config", "", "JSON machine config file (the same validated object ultraserve stores); explicitly set flags override its fields, and its program runs when no prog.s argument is given")
	flag.Parse()

	// -config: the ultraserve config object as the run description. Flags
	// the user explicitly set still win, so `-config base.json -pes 32`
	// works as expected.
	var fileCfg *serve.Config
	if *configPath != "" {
		c, err := serve.LoadConfigFile(*configPath)
		if err != nil {
			fatal(err)
		}
		fileCfg = &c
		d := c.WithDefaults()
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["pes"] {
			*pes = d.PEs
		}
		if !set["k"] {
			*k = d.K
		}
		if !set["stages"] {
			*stages = d.Stages
		}
		if !set["combining"] {
			*combining = !d.NoCombining
		}
		if !set["hashing"] {
			*hashing = !d.NoHashing
		}
		if !set["local"] {
			*local = d.LocalWords
		}
		if !set["lint"] {
			*lintFlag = d.Lint
		}
		if !set["limit"] {
			*limit = d.Limit
		}
		if !set["sample-every"] {
			*sampleEvery = d.SampleEvery
		}
	}

	if *topo {
		fmt.Print(network.DescribeTopology(*k, *stages))
		return
	}

	var src, srcName string
	switch {
	case flag.NArg() == 1:
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src, srcName = string(b), flag.Arg(0)
	case flag.NArg() == 0 && fileCfg != nil:
		src, srcName = fileCfg.Program, *configPath
	default:
		fmt.Fprintln(os.Stderr, "usage: ultrasim [flags] prog.s  (or -config cfg.json with an embedded program)")
		os.Exit(2)
	}
	prog, err := isa.Assemble(src)
	if err != nil {
		fatal(err)
	}
	if *disasm {
		fmt.Print(prog.Disassemble())
		return
	}

	// -verify preflight: an exhaustive 2-PE interleaving proof is cheap
	// next to a long simulation and catches the coordination bugs the
	// per-PE lint cannot (the bound stays at 2 — or lower via `;mc:
	// bound` — because the state space grows steeply with PEs; ultravet
	// -mc-pes raises it offline).
	if *verifyFlag {
		res, err := mc.CheckSource(src, mc.Options{PEs: 2})
		if err != nil {
			fatal(err)
		}
		switch {
		case res.Suppressed:
			fmt.Fprintf(os.Stderr, "verify: %s: suppressed (%s)\n", srcName, res.SuppressReason)
		case res.Exhausted:
			fmt.Fprintf(os.Stderr, "verify: %s: state budget exhausted after %d states; nothing proven\n", srcName, res.States)
			os.Exit(1)
		case res.Violation != nil:
			v := res.Violation
			fmt.Fprintf(os.Stderr, "verify: %s: %s\n", srcName, v.Message)
			fmt.Fprintf(os.Stderr, "counterexample schedule (%d PEs):\n", res.PEs)
			for _, st := range v.Steps {
				fmt.Fprintf(os.Stderr, "  PE%d  line %-3d  %s\n", st.PE, st.Line, st.Asm)
			}
			os.Exit(1)
		default:
			fmt.Fprintf(os.Stderr, "verify: %s: clean (%d states at %d PEs, %s)\n",
				srcName, res.States, res.PEs, res.Elapsed.Round(time.Millisecond))
		}
	}

	cfg := machine.Config{
		Net:     network.Config{K: *k, Stages: *stages, Combining: *combining},
		Hashing: *hashing,
		PEs:     *pes,
	}
	opts := machine.LoadOptions{
		LocalWords: *local,
		Lint:       *lintFlag,
	}
	if fileCfg != nil {
		// Start from the config object (it carries fields no flag covers:
		// copies, queue sizing, MM latency, cache, ideal memory), then
		// re-apply the flag-covered fields so explicit flags win.
		cfg = fileCfg.MachineConfig()
		opts = fileCfg.LoadOptions()
		cfg.Net.K, cfg.Net.Stages, cfg.Net.Combining = *k, *stages, *combining
		cfg.Hashing, cfg.PEs = *hashing, *pes
		opts.LocalWords, opts.Lint = *local, *lintFlag
	}
	m, isaCores, err := machine.Load(cfg, prog, opts)
	if err != nil {
		var le *machine.LintError
		if errors.As(err, &le) {
			for _, f := range le.Findings {
				fmt.Fprintf(os.Stderr, "%s: %s\n", srcName, f)
			}
			os.Exit(1)
		}
		fatal(err)
	}
	var rec *obs.Recorder
	if *traceOut != "" || *serveAddr != "" {
		rec = obs.NewRecorder(obs.DefaultRecorderCapacity)
		m.SetProbe(rec)
	}
	var sampler *obs.Sampler
	if *metricsOut != "" || *serveAddr != "" {
		sampler = obs.NewSampler(*sampleEvery)
		m.SetSampler(sampler)
	}
	var tracer *reqtrace.Tracer
	if *reqRate > 0 || *spansOut != "" || *flightDir != "" {
		r := *reqRate
		if r == 0 {
			r = 1
		}
		tracer = reqtrace.New(reqtrace.Config{Rate: r})
		m.SetTracer(tracer)
	}
	var profiler *prof.Profiler
	if *profFlag || *profOut != "" {
		profiler = prof.New(prof.Config{
			PEs:      *pes,
			Programs: []*isa.Program{prog},
			File:     filepath.Base(srcName),
			Source:   src,
		})
		m.SetProfiler(profiler)
	}

	// Live telemetry: the server runs beside the simulation; the only
	// thing the sim loop does for it is publish copy-on-sample States via
	// the sampler's OnRecord hook (see internal/obs/live).
	var feed *live.Feed
	var hs *http.Server
	if *serveAddr != "" {
		srv := live.NewServer()
		var prevRep machine.Report
		if tracer != nil {
			srv.SetFlight(tracer)
		}
		if profiler != nil {
			profiler.EnableLive()
			srv.SetProfile(profiler)
		}
		feed = &live.Feed{
			Server:    srv,
			Monitor:   live.NewMonitor(live.ModelFor(cfg.Net, cfg.MMLatency, *confThreshold)),
			Recorder:  rec,
			Tracer:    tracer,
			FlightDir: *flightDir,
			Report: func() any {
				cur := m.Report()
				win := cur.Delta(prevRep)
				prevRep = cur
				return struct {
					Total  machine.Report `json:"total"`
					Window machine.Report `json:"window"`
				}{cur, win}
			},
		}
		feed.Attach(sampler)
		var bound string
		hs, bound, err = srv.Start(*serveAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("telemetry: http://%s/metrics\n", bound)
	}

	cycles, done := m.Run(*limit)
	if !done {
		fmt.Fprintf(os.Stderr, "warning: cycle limit reached before all PEs halted\n")
	}
	fmt.Printf("ran %d PE cycles (%d network cycles)\n\n", cycles, m.Cycles())
	fmt.Print(m.Report().String())

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

	if *traceOut != "" {
		if err := writeTrace(*traceOut, rec); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d events", *traceOut, rec.Len())
		if d := rec.Overwritten(); d > 0 {
			fmt.Printf("; ring dropped the oldest %d", d)
		}
		fmt.Println(")")
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, sampler); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d samples)\n", *metricsOut, len(sampler.Snapshots()))
	}
	if tracer != nil {
		fmt.Printf("request tracing: %d spans completed, %d combine links, mean latency %.1f cycles\n",
			tracer.Completed(), tracer.CombineLinks(), tracer.MeanLatency())
		if d := tracer.Dropped(); d > 0 {
			fmt.Printf("  tracer dropped %d events (ring too small for the sampling rate)\n", d)
		}
		if *spansOut != "" {
			if err := writeSpans(*spansOut, tracer); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (inspect with: tables -spans %s)\n", *spansOut, *spansOut)
		}
		if feed != nil {
			for _, p := range feed.FlightDumps() {
				fmt.Printf("flight recorder dumped %s\n", p)
			}
		}
	}
	if profiler != nil {
		// Fold the tracer's combining genealogy into the profile: the
		// longest dependent chains through each combining tree are the
		// run's top slow paths.
		if tracer != nil {
			spans := append(tracer.Spans(), tracer.SlowSpans()...)
			profiler.AddCriticalPaths(prof.CriticalPaths(spans, 10))
		}
		printProfSummary(profiler)
		if *profOut != "" {
			if err := writeProfile(*profOut, profiler); err != nil {
				fatal(err)
			}
			how := "tables -prof " + *profOut
			if profBinary(*profOut) {
				how = "go tool pprof -top " + *profOut
			}
			fmt.Printf("wrote %s (inspect with: %s)\n", *profOut, how)
		}
	}

	if *dump != "" {
		lo, hi, err := parseRange(*dump)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nshared memory [%d, %d):\n", lo, hi)
		for a := lo; a < hi; a++ {
			fmt.Printf("  M[%d] = %d\n", a, m.ReadShared(a))
		}
	}
	if *regs != "" {
		fmt.Println()
		for _, s := range strings.Split(*regs, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || r < 0 || r >= isa.NumRegs {
				fatal(fmt.Errorf("bad register %q", s))
			}
			for i, c := range isaCores {
				fmt.Printf("  pe%d r%d = %d\n", i, r, c.Reg(r))
			}
		}
	}

	if hs != nil {
		fmt.Println("\nrun finished; serving the final snapshot until interrupted (Ctrl-C)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		hs.Close()
	}
}

func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec.Events()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(path string, tr *reqtrace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteSpansJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profBinary reports whether the output path selects the pprof
// protobuf format (otherwise JSONL).
func profBinary(path string) bool {
	return strings.HasSuffix(path, ".pb.gz") || strings.HasSuffix(path, ".pprof")
}

func writeProfile(path string, p *prof.Profiler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if profBinary(path) {
		err = p.WritePprof(f)
	} else {
		err = p.WriteJSONL(f)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printProfSummary prints the profile's headline numbers: where the
// guest's cycles went by state, the hottest functions, and the most
// contended shared words.
func printProfSummary(p *prof.Profiler) {
	m := p.Merged()
	if m.TotalCycles == 0 {
		return
	}
	var states [obs.NumProfStates]int64
	for _, r := range m.PEs {
		for s, v := range r.States {
			states[s] += v
		}
	}
	fmt.Printf("\nguest profile: %d cycles across %d PEs\n", m.TotalCycles, len(m.PEs))
	for s, v := range states {
		if v > 0 {
			fmt.Printf("  %-15s %12d  %5.1f%%\n", obs.ProfState(s), v,
				100*float64(v)/float64(m.TotalCycles))
		}
	}
	fmt.Println("hottest functions (flat cycles):")
	shown := 0
	for _, f := range m.Funcs {
		if f.Name == "<halted>" {
			continue
		}
		fmt.Printf("  %-28s flat %10d  cum %10d\n", f.Name, f.Flat, f.Cum)
		if shown++; shown == 5 {
			break
		}
	}
	rows := append([]prof.AddrRow(nil), m.Addrs...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Accesses > rows[j].Accesses })
	if len(rows) > 0 {
		fmt.Println("hottest shared words (accesses / combines / wait cycles):")
		for i, r := range rows {
			if i == 5 || r.Accesses == 0 {
				break
			}
			fmt.Printf("  MM %2d word %6d  %10d / %8d / %10d\n",
				r.MM, r.Word, r.Accesses, r.Combines, r.WaitCycles)
		}
	}
	for i, cp := range m.Paths {
		if i == 0 {
			fmt.Println("top slow paths (combining-tree critical chains):")
		}
		if i == 3 {
			break
		}
		fmt.Printf("  root %d  MM %d word %d  %d spans  depth %d  %d cycles\n",
			cp.Root, cp.MM, cp.Word, cp.TreeSpans, cp.Depth, cp.Latency)
	}
}

func writeMetrics(path string, s *obs.Sampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseRange(s string) (lo, hi int64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad range %q, want lo:hi", s)
	}
	if lo, err = strconv.ParseInt(parts[0], 0, 64); err != nil {
		return 0, 0, err
	}
	if hi, err = strconv.ParseInt(parts[1], 0, 64); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ultrasim:", err)
	os.Exit(1)
}
