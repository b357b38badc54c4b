package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/experiments"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/pe"
)

// asmPEs is the PE count of every machine-asm machine: one PE per port
// of experiments.PaperMachine's 64-port network.
const asmPEs = 64

// asmLimit bounds every machine-asm run in network cycles.
const asmLimit = 10_000_000

// kernelPasses sets the generated kernel's length: enough sweeps that the
// kernel, not the millisecond-scale shipped programs, dominates a job.
const kernelPasses = 5

// asmProgram is one guest program of a machine-asm job.
type asmProgram struct {
	name   string
	src    string
	cached bool
	// check verifies the program's documented final shared memory.
	check func(read func(int64) int64) error
}

// shippedPrograms lists the repository's guest programs with the final
// memory their header comments document, evaluated at asmPEs PEs.
var shippedPrograms = []struct {
	path  string
	check func(read func(int64) int64) error
}{
	{"examples/asm/barrier.s", func(m func(int64) int64) error {
		return cells(m, map[int64]int64{600: asmPEs, 601: asmPEs, 602: asmPEs, 700: 0, 701: 3})
	}},
	{"examples/asm/dotproduct.s", func(m func(int64) int64) error {
		return cells(m, map[int64]int64{300: 272})
	}},
	{"examples/asm/queue.s", func(m func(int64) int64) error {
		return cells(m, map[int64]int64{900: 100*asmPEs + asmPEs*(asmPEs-1)/2, 802: 0, 803: 0})
	}},
	{"examples/asm/rw.s", func(m func(int64) int64) error {
		return cells(m, map[int64]int64{410: 4, 411: 4, 420: 0, 421: 4 * (asmPEs - 1)})
	}},
	{"examples/asm/tickets.s", func(m func(int64) int64) error {
		if err := cells(m, map[int64]int64{500: asmPEs}); err != nil {
			return err
		}
		seen := map[int64]bool{}
		for t := int64(0); t < asmPEs; t++ {
			p := m(501 + t)
			if p < 0 || p >= asmPEs || seen[p] {
				return fmt.Errorf("ticket %d held by PE %d (duplicate or out of range)", t, p)
			}
			seen[p] = true
		}
		return nil
	}},
	{"internal/coord/guest/sem.s", func(m func(int64) int64) error {
		return cells(m, map[int64]int64{0: 1, 1: 0, 2: asmPEs})
	}},
	{"internal/coord/guest/swaplock.s", func(m func(int64) int64) error {
		return cells(m, map[int64]int64{0: 0, 1: 0, 2: asmPEs})
	}},
}

func cells(read func(int64) int64, want map[int64]int64) error {
	for a, w := range want {
		if got := read(a); got != w {
			return fmt.Errorf("M[%d] = %d, want %d", a, got, w)
		}
	}
	return nil
}

// asmPrograms loads the shipped programs and generates the seeded kernel.
func asmPrograms(root string, seed uint64) ([]asmProgram, error) {
	var progs []asmProgram
	for _, sp := range shippedPrograms {
		src, err := os.ReadFile(filepath.Join(root, sp.path))
		if err != nil {
			return nil, err
		}
		progs = append(progs, asmProgram{name: sp.path, src: string(src), check: sp.check})
	}
	k := genKernel(seed, kernelPasses)
	progs = append(progs, asmProgram{
		name: "kernel", src: k.src, cached: true,
		check: func(read func(int64) int64) error { return k.check(asmPEs, read) },
	})
	return progs, nil
}

func asmConfig() machine.Config {
	cfg := experiments.PaperMachine()
	cfg.PEs = asmPEs
	return cfg
}

func (p asmProgram) options() machine.LoadOptions {
	if p.cached {
		c := kernelCache
		return machine.LoadOptions{Cache: &c}
	}
	return machine.LoadOptions{}
}

// asmRun is the outcome of one program in a job.
type asmRun struct {
	setupNs, runNs int64
	cycles         int64 // cycles stepped after the first
	report         []byte
	m              *machine.Machine
}

// runPlain is the untraced path, as ultrasim takes it: assemble, Load,
// the first Step (which builds the network stepper), then Run to the end.
func runPlain(p asmProgram) (asmRun, error) {
	t0 := now()
	prog, err := isa.Assemble(p.src)
	if err != nil {
		return asmRun{}, fmt.Errorf("%s: %w", p.name, err)
	}
	m, _, err := machine.Load(asmConfig(), prog, p.options())
	if err != nil {
		return asmRun{}, fmt.Errorf("%s: %w", p.name, err)
	}
	m.Step()
	t1 := now()
	_, done := m.Run(asmLimit)
	t2 := now()
	if !done {
		return asmRun{}, fmt.Errorf("%s: not done after %d cycles", p.name, asmLimit)
	}
	rep, err := m.Report().JSON()
	if err != nil {
		return asmRun{}, fmt.Errorf("%s: report: %w", p.name, err)
	}
	return asmRun{setupNs: t1 - t0, runNs: t2 - t1, cycles: m.Cycles() - 1, report: rep, m: m}, nil
}

// Span names of the machine-asm traced path. asm.job is the driver.
const (
	spAsmJob    = "asm.job"
	spAssemble  = "isa.assemble"
	spBuild     = "machine.build"
	spDone      = "machine.done"
	spStep      = "machine.step"
	spMemory    = "memory.phase"
	spPECollect = "pe.collect"
	spPETick    = "pe.tick"
	spISATick   = "isa.tick"
	spReport    = "machine.report"
)

// phaseEngine is the engine.Engine the traced machine runs on. It keeps
// the run serial (Workers()==0, so the network stepper runs its phases
// inline) and times each Run call of a machine Step as the phase its
// position names: memory service, reply collection, then — on PE-cycle
// boundaries — the PE tick.
type phaseEngine struct {
	tr    *Tracer
	names [3]int
	ns    []int // unit counts of the Run calls of the current Step
}

func newPhaseEngine(tr *Tracer) *phaseEngine {
	e := &phaseEngine{tr: tr}
	if tr != nil {
		e.names = [3]int{tr.Name(spMemory), tr.Name(spPECollect), tr.Name(spPETick)}
	}
	return e
}

func (e *phaseEngine) Run(n int, fn func(lo, hi, worker int)) {
	if k := len(e.ns); k < len(e.names) {
		e.tr.Begin(e.names[k])
		fn(0, n, 0)
		e.tr.End()
	} else {
		fn(0, n, 0) // an unexpected call: run it, and let checkStep report it
	}
	e.ns = append(e.ns, n)
}

var _ engine.Engine = (*phaseEngine)(nil)

func (e *phaseEngine) Workers() int { return 0 }
func (e *phaseEngine) Close()       {}

// checkStep verifies the Run calls of the Step that began at cycle:
// memory over every module, collection over every PE, and a PE tick
// exactly on PE-cycle boundaries.
func (e *phaseEngine) checkStep(cycle, peCycle int64, modules, pes int) error {
	want := []int{modules, pes}
	if cycle%peCycle == 0 {
		want = append(want, pes)
	}
	ok := len(e.ns) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = e.ns[i] == want[i]
	}
	if !ok {
		return fmt.Errorf("step at cycle %d made Run calls over %v units, want %v (memory, collect[, tick])", cycle, e.ns, want)
	}
	return nil
}

// timedCore times each instruction cycle of the wrapped isa.Core.
type timedCore struct {
	*isa.Core
	tr   *Tracer
	tick int
}

func (c timedCore) Tick(env *pe.Env) pe.TickResult {
	c.tr.Begin(c.tick)
	r := c.Core.Tick(env)
	c.tr.End()
	return r
}

// runTraced is the traced path: the same program on a machine whose
// cores and engine are wrapped, driven one Step at a time. Every Step's
// engine phases are checked; failures go to b.
func runTraced(b *bench, p asmProgram, tr *Tracer) (asmRun, []*isa.Core, error) {
	cfg := asmConfig()
	tr.Begin(tr.Name(spAssemble))
	prog, err := isa.Assemble(p.src)
	tr.End()
	if err != nil {
		return asmRun{}, nil, fmt.Errorf("%s: %w", p.name, err)
	}
	tr.Begin(tr.Name(spBuild))
	cores := make([]*isa.Core, cfg.PEs)
	wrapped := make([]pe.Core, cfg.PEs)
	tick := tr.Name(spISATick)
	for i := range cores {
		if p.cached {
			cores[i] = isa.NewCoreWithCache(prog, 4096, kernelCache)
		} else {
			cores[i] = isa.NewCore(prog, 4096)
		}
		wrapped[i] = timedCore{Core: cores[i], tr: tr, tick: tick}
	}
	m := machine.New(cfg, wrapped)
	eng := newPhaseEngine(tr)
	m.SetEngine(eng)
	tr.End()

	done, step := tr.Name(spDone), tr.Name(spStep)
	peCycle := int64(2) // machine.Config's default PECycle
	bad := 0
	for m.Cycles() < asmLimit {
		tr.Begin(done)
		d := m.Done()
		tr.End()
		if d {
			break
		}
		cycle := m.Cycles()
		eng.ns = eng.ns[:0]
		tr.Begin(step)
		m.Step()
		tr.End()
		if err := eng.checkStep(cycle, peCycle, len(m.Bank().Modules), m.NumPE()); err != nil {
			if bad == 0 {
				b.fail("%s: %v", p.name, err)
			}
			bad++
		}
	}
	b.attempted++
	if !m.Done() {
		return asmRun{}, nil, fmt.Errorf("%s: not done after %d cycles", p.name, asmLimit)
	}
	tr.Begin(tr.Name(spReport))
	rep, err := m.Report().JSON()
	tr.End()
	if err != nil {
		return asmRun{}, nil, fmt.Errorf("%s: report: %w", p.name, err)
	}
	return asmRun{cycles: m.Cycles(), report: rep, m: m}, cores, nil
}

func runMachineAsm(b *bench) {
	progs, err := asmPrograms(".", b.seed)
	if err != nil {
		b.fail("loading programs: %v", err)
		return
	}
	// The first plain job is the warm-up and the reference: every later
	// job, plain or traced, must reproduce its reports byte for byte.
	ref := make([][]byte, len(progs))
	for i, p := range progs {
		r, err := runPlain(p)
		if err != nil {
			b.fail("%v", err)
			return
		}
		b.check(p.check(r.m.ReadShared) == nil, "%s: final memory: %v", p.name, p.check(r.m.ReadShared))
		ref[i] = r.report
		b.expect(p.name, r.report)
	}
	plainJob := func() (setupNs, runNs, cycles int64) {
		for i, p := range progs {
			r, err := runPlain(p)
			if err != nil {
				b.fail("%v", err)
				continue
			}
			err = p.check(r.m.ReadShared)
			b.check(err == nil, "%s: final memory: %v", p.name, err)
			b.check(bytes.Equal(r.report, ref[i]), "%s: report differs from the reference run", p.name)
			setupNs += r.setupNs
			runNs += r.runNs
			cycles += r.cycles
		}
		return
	}

	if !b.traced {
		var jobNs, setupNs []float64
		var cycles int64
		b.loop(3, func(int) {
			s, r, c := plainJob()
			jobNs = append(jobNs, float64(r))
			setupNs = append(setupNs, float64(s))
			cycles = c
		})
		b.finishEndToEnd(float64(cycles), jobNs, setupNs)
		return
	}

	tr := NewTracer(spanKeep)
	var rt runtimeAcc
	var plainNs, tracedNs []float64
	var steps, instrs, idle, served, simCycles, kernelInstrs int64
	var hits, misses, writebacks int64
	b.loop(4, func(i int) {
		if i%2 == 0 {
			// Timed whole, set-up and reports included, like the traced
			// job it is compared with.
			before := readMem()
			t0 := now()
			_, _, c := plainJob()
			plainNs = append(plainNs, float64(now()-t0))
			rt.add(readMem().since(before), c)
			return
		}
		self0 := tr.SelfSum()
		job := tr.Name(spAsmJob)
		start := now()
		tr.BeginAt(job, start)
		var runs []asmRun
		var cores [][]*isa.Core
		for _, p := range progs {
			r, cs, err := runTraced(b, p, tr)
			if err != nil {
				b.fail("%v", err)
				continue
			}
			runs = append(runs, r)
			cores = append(cores, cs)
		}
		rootNs := tr.EndAt(now())
		b.check(len(runs) == len(progs), "machine-asm: %d of %d traced programs finished", len(runs), len(progs))
		b.check(tr.Open() == 0 && tr.SelfSum()-self0 == rootNs,
			"machine-asm: span self times sum to %d ns, traced job took %d ns", tr.SelfSum()-self0, rootNs)
		for k, r := range runs {
			p := progs[k]
			err := p.check(r.m.ReadShared)
			b.check(err == nil, "%s (traced): final memory: %v", p.name, err)
			b.check(bytes.Equal(r.report, ref[k]), "%s: wrapped machine's report differs from the plain run", p.name)
			rep := r.m.Report()
			steps += r.cycles
			simCycles += r.cycles
			instrs += rep.Instructions
			idle += rep.IdleCycles
			served += rep.MMOpsServed
			if p.cached {
				kernelInstrs += rep.Instructions
				for _, c := range cores[k] {
					st := c.Cache().Stats()
					hits += st.Hits.Value()
					misses += st.Misses.Value()
					writebacks += st.WriteBacks.Value()
				}
			}
		}
		tracedNs = append(tracedNs, float64(rootNs))
	})
	perStep := func(v int64) float64 { return ratio(float64(v), float64(steps)) }
	perCall := func(name string) float64 { return ratio(float64(tr.Total(name)), float64(tr.Calls(name))) }
	b.set("machine.step_ns_per_cycle", perStep(tr.Total(spStep)))
	b.set("machine.net_self_ns_per_cycle", perStep(tr.Self(spStep)))
	b.set("machine.done_ns_per_cycle", perStep(tr.Total(spDone)))
	b.set("machine.build_ms", perCall(spBuild)/1e6)
	b.set("machine.report_ms", perCall(spReport)/1e6)
	b.set("pe.tick_ns_per_pe_cycle", ratio(float64(tr.Self(spPETick)), float64(tr.Calls(spPETick)*asmPEs)))
	b.set("pe.collect_ns_per_cycle", perStep(tr.Total(spPECollect)))
	b.set("pe.stall_frac", ratio(float64(idle), float64(instrs+idle)))
	b.set("isa.tick_ns_per_instr", ratio(float64(tr.Total(spISATick)), float64(instrs)))
	b.set("isa.assemble_ms", perCall(spAssemble)/1e6)
	b.set("cache.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	b.set("cache.writebacks_per_kinstr", 1000*ratio(float64(writebacks), float64(kernelInstrs)))
	b.set("engine.run_calls_per_cycle", perStep(tr.Calls(spMemory)+tr.Calls(spPECollect)+tr.Calls(spPETick)))
	b.set("memory.step_ns_per_cycle", perStep(tr.Total(spMemory)))
	b.set("memory.served_per_cycle", ratio(float64(served), float64(simCycles)))
	b.set("trace.driver_ns_per_cycle", perStep(tr.Self(spAsmJob)))
	b.set("bench.trace_overhead_frac", median(tracedNs)/median(plainNs))
	rt.report(b)
	b.layerTable(tr, float64(steps))
	b.writeSpans(tr)
}
