// Package machine assembles the full NYU Ultracomputer (Figure 1): N
// processing elements connected through the combining Omega network to N
// memory modules, with the timing ratios of the paper's simulations
// (§4.2): the PE instruction time and the MM access time both default to
// twice the network cycle time.
package machine

import (
	"fmt"
	"math"

	"ultracomputer/internal/engine"
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/network"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/obs/prof"
	"ultracomputer/internal/obs/reqtrace"
	"ultracomputer/internal/pe"
)

// Config describes a machine.
type Config struct {
	// Net configures the interconnect; the network's port count is the
	// machine's MM count and the upper bound on PEs.
	Net network.Config
	// PEs is the number of processing elements actually populated
	// (paper §4.2 simulates 16 or 48 PEs against a 4096-port network).
	// Zero means one PE per port.
	PEs int
	// MMLatency is the memory module access time in network cycles
	// (default 2, §4.2).
	MMLatency int64
	// PECycle is the PE instruction time in network cycles (default 2,
	// §4.2).
	PECycle int64
	// Hashing selects the address hasher: true applies the
	// multiplicative hash of §3.1.4, false the unhashed interleave.
	Hashing bool
	// MaxOutstanding bounds each PE's in-flight shared requests
	// (register locking depth; default 12).
	MaxOutstanding int
	// IdealMemory bypasses the network entirely: every shared request
	// completes on the next PE cycle, which is the paracomputer of
	// §2.1 with timing — the WASHCLOTH-style ideal the paper's own
	// simulations used as reference. Comparing a run against the same
	// run with IdealMemory isolates the cost of the real network.
	IdealMemory bool
}

func (c Config) withDefaults() Config {
	if c.MMLatency == 0 {
		c.MMLatency = 2
	}
	if c.PECycle == 0 {
		c.PECycle = 2
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 12
	}
	if c.PEs == 0 {
		c.PEs = c.Net.Ports()
	}
	return c
}

// Machine is one simulated Ultracomputer.
type Machine struct {
	cfg  Config
	net  *network.Network
	bank *memory.Bank
	pes  []*pe.PE

	cycle    int64 // network cycles elapsed
	peCycles int64 // PE cycles elapsed

	sampler *obs.Sampler
	probe   obs.Probe
	tracer  *reqtrace.Tracer
	prof    *prof.Profiler

	// eng runs Step's per-unit phases (default engine.Serial). The
	// phase bodies and MM ports are built once in New so Step allocates
	// nothing in steady state: the closures read the cycle from the
	// receiver, and the prebuilt memory.Port values avoid re-boxing an
	// mmPort per module per cycle.
	eng       engine.Engine
	mmPorts   []memory.Port
	mmStepFn  func(lo, hi, w int)
	collectFn func(lo, hi, w int)
	tickFn    func(lo, hi, w int)

	// solo, when >= 0, restricts PE ticks to that one PE (replies still
	// deliver to everyone) — the schedule-driven stepping hook StepPE
	// uses it to serialize instruction execution for counterexample
	// replay. -1 is normal operation.
	solo int

	// idealPending holds replies generated under IdealMemory during
	// this cycle, delivered at the start of the next (one-cycle
	// paracomputer access).
	idealPending []idealReply
}

type idealReply struct {
	pe  int
	rep msg.Reply
}

// New builds a machine; cores[i] drives PE i. Pass fewer cores than
// Config.PEs and the rest idle as halted. It panics on invalid
// configuration.
func New(cfg Config, cores []pe.Core) *Machine {
	cfg = cfg.withDefaults()
	if err := cfg.Net.Validate(); err != nil {
		panic(err)
	}
	ports := cfg.Net.Ports()
	if cfg.PEs > ports {
		panic(fmt.Sprintf("machine: %d PEs but only %d network ports", cfg.PEs, ports))
	}
	if len(cores) > cfg.PEs {
		panic(fmt.Sprintf("machine: %d cores for %d PEs", len(cores), cfg.PEs))
	}
	m := &Machine{cfg: cfg, net: network.New(cfg.Net), eng: engine.Serial{}, solo: -1}
	var h memory.Hasher
	if cfg.Hashing {
		h = memory.MultHash{N: ports}
	} else {
		h = memory.Interleave{N: ports}
	}
	m.bank = memory.NewBank(ports, cfg.MMLatency, h)
	for i := range cores {
		peID := i
		var inject func(msg.Request) bool
		if cfg.IdealMemory {
			inject = func(r msg.Request) bool {
				m.applyIdeal(peID, r)
				return true
			}
		} else {
			inject = func(r msg.Request) bool { return m.net.Inject(peID, r, m.cycle) }
		}
		m.pes = append(m.pes, pe.New(peID, cores[i], h, inject, cfg.MaxOutstanding))
	}
	m.buildPhases()
	return m
}

// applyIdeal executes one request against memory immediately (the
// serialization order is the order requests are issued within the
// cycle) and schedules its reply for the next PE cycle.
func (m *Machine) applyIdeal(peID int, r msg.Request) {
	mod := m.bank.Modules[r.Addr.MM]
	newVal, ret := msg.Apply(r.Op, mod.Peek(r.Addr.Word), r.Operand)
	mod.Poke(r.Addr.Word, newVal)
	mod.Served.Inc()
	m.idealPending = append(m.idealPending, idealReply{
		pe:  peID,
		rep: msg.Reply{ID: r.ID, PE: r.PE, Op: r.Op, Addr: r.Addr, Value: ret, TC: r.TC},
	})
}

// NewPrograms is a convenience constructor wrapping each Program in a
// GoCore.
func NewPrograms(cfg Config, progs []pe.Program) *Machine {
	cores := make([]pe.Core, len(progs))
	for i, p := range progs {
		cores[i] = pe.NewGoCore(p)
	}
	return New(cfg, cores)
}

// SPMD builds a machine whose populated PEs all run the same program
// (each sees its own ctx.PE()).
func SPMD(cfg Config, n int, prog pe.Program) *Machine {
	progs := make([]pe.Program, n)
	for i := range progs {
		progs[i] = prog
	}
	cfg.PEs = n
	return NewPrograms(cfg, progs)
}

// SetProbe attaches an event probe to every layer of the machine:
// network injection/hops/combining, memory-module service, PE stalls,
// and any caches the programs attach. Call before the first Step. A nil
// probe (the default) costs nothing on the hot paths.
func (m *Machine) SetProbe(p obs.Probe) {
	m.probe = p
	m.net.SetProbe(p)
	m.bank.SetProbe(p)
	for _, pp := range m.pes {
		pp.SetProbe(p, m.cfg.PECycle)
	}
}

// SetTracer attaches a request tracer to every layer of the machine:
// the PEs' PNIs stamp sampled requests with a trace context at issue,
// and the network switches and memory modules record per-hop events on
// the tracer's dedicated stream. Call before the first Step; nil (the
// default) detaches. Under IdealMemory the trace context propagates
// into replies but no network hops exist, so spans stay empty.
func (m *Machine) SetTracer(t *reqtrace.Tracer) {
	m.tracer = t
	// Interface values must be built from a checked pointer: assigning a
	// nil *Tracer directly would produce a non-nil interface.
	var p obs.Probe
	var s pe.TraceSampler
	if t != nil {
		p = t
		s = t
	}
	m.net.SetTracer(p)
	m.bank.SetTracer(p)
	for _, pp := range m.pes {
		pp.SetTracer(s)
	}
}

// Tracer returns the attached request tracer, or nil.
func (m *Machine) Tracer() *reqtrace.Tracer { return m.tracer }

// SetProfiler attaches the guest profiler to every layer of the
// machine: PEs attribute cycles and report issues/deliveries, memory
// modules report serves, and the network reports combines. Call before
// the first Step; nil (the default) detaches. An attached profiler with
// Enabled()==false wires nothing, so it costs zero on the hot paths.
func (m *Machine) SetProfiler(p *prof.Profiler) {
	m.prof = p
	// Interface values must be built from a checked pointer: assigning a
	// nil *Profiler directly would produce a non-nil interface.
	var peSink pe.Profiler
	var mmSink memory.ServeProfiler
	var netSink network.NetProfiler
	if p != nil && p.Enabled() {
		p.SetMMs(len(m.bank.Modules))
		peSink = p
		mmSink = p
		netSink = p
	}
	for _, pp := range m.pes {
		pp.SetProfiler(peSink)
	}
	m.bank.SetProfiler(mmSink)
	m.net.SetProfiler(netSink)
}

// Profiler returns the attached guest profiler, or nil.
func (m *Machine) Profiler() *prof.Profiler { return m.prof }

// SetEngine selects the engine that runs Step's per-unit phases; nil
// restores engine.Serial. Every engine runs the units in order on the
// calling goroutine, so the choice never changes a run's output; a
// custom engine can observe the phases (time them, count them).
func (m *Machine) SetEngine(e engine.Engine) {
	if e == nil {
		e = engine.Serial{}
	}
	m.eng = e
}

// buildPhases builds Step's phase bodies and MM ports once, so driving
// a cycle allocates nothing.
func (m *Machine) buildPhases() {
	m.mmPorts = make([]memory.Port, len(m.bank.Modules))
	for mm := range m.mmPorts {
		m.mmPorts[mm] = mmPort{m.net, mm}
	}
	m.mmStepFn = func(lo, hi, _ int) {
		for mm := lo; mm < hi; mm++ {
			m.bank.Modules[mm].Step(m.cycle, m.mmPorts[mm])
		}
	}
	m.collectFn = func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			for _, rep := range m.net.Collect(i, m.cycle) {
				m.pes[i].Deliver(rep, m.peCycles)
			}
		}
	}
	m.tickFn = func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			if m.solo >= 0 && i != m.solo {
				continue
			}
			m.pes[i].Tick(m.peCycles, len(m.pes))
		}
	}
}

// SetSampler attaches a metrics sampler; every Sampler.Every network
// cycles Step records a snapshot of queue occupancy, combining and MM
// utilization. Call before the first Step.
func (m *Machine) SetSampler(s *obs.Sampler) { m.sampler = s }

// Sampler returns the attached sampler, or nil.
func (m *Machine) Sampler() *obs.Sampler { return m.sampler }

// Net exposes the interconnect (for statistics).
func (m *Machine) Net() *network.Network { return m.net }

// Bank exposes the memory modules.
func (m *Machine) Bank() *memory.Bank { return m.bank }

// PE returns processing element i.
func (m *Machine) PE(i int) *pe.PE { return m.pes[i] }

// NumPE reports the populated PE count.
func (m *Machine) NumPE() int { return len(m.pes) }

// Cycles reports elapsed network cycles.
func (m *Machine) Cycles() int64 { return m.cycle }

// PECycles reports elapsed PE cycles.
func (m *Machine) PECycles() int64 { return m.peCycles }

// mmPort adapts the network's MM side to memory.Port.
type mmPort struct {
	net *network.Network
	mm  int
}

func (p mmPort) Dequeue() (msg.Request, bool) { return p.net.MMDequeue(p.mm) }
func (p mmPort) Reply(r msg.Reply) bool       { return p.net.MMReply(p.mm, r) }

// Step advances the machine one network cycle: the network moves, memory
// modules serve, replies reach the PEs, and — every PECycle network
// cycles — each PE executes one instruction cycle. Under IdealMemory the
// network and module timing are bypassed and last cycle's replies arrive
// directly.
//
// Module service, reply delivery and instruction ticks each run as one
// phase through the engine (SetEngine), in that order.
func (m *Machine) Step() {
	if m.cfg.IdealMemory {
		pending := m.idealPending
		m.idealPending = m.idealPending[:0]
		for _, ir := range pending {
			m.pes[ir.pe].Deliver(ir.rep, m.peCycles)
		}
	} else {
		m.net.Step(m.cycle)
		m.eng.Run(len(m.bank.Modules), m.mmStepFn)
		m.eng.Run(len(m.pes), m.collectFn)
	}
	if m.cycle%m.cfg.PECycle == 0 {
		m.eng.Run(len(m.pes), m.tickFn)
		m.peCycles++
	}
	if m.sampler != nil && m.sampler.Due(m.cycle) {
		// Snapshot assembly allocates, but only on sampling cycles
		// (every Sampler.Every-th cycle), never in the steady-state tick.
		//ultravet:ok hotalloc periodic sampling path, off the per-cycle steady state
		sn := m.net.Snapshot(m.cycle)
		//ultravet:ok hotalloc periodic sampling path, off the per-cycle steady state
		m.bank.Observe(&sn)
		//ultravet:ok hotalloc periodic sampling path, off the per-cycle steady state
		m.observePEs(&sn)
		//ultravet:ok hotalloc periodic sampling path, off the per-cycle steady state
		m.sampler.Record(sn)
		if m.prof != nil {
			// Rebuild the live /profile payload (no-op unless live
			// publishing was enabled; see prof.Profiler.EnableLive).
			//ultravet:ok hotalloc periodic sampling path, off the per-cycle steady state
			m.prof.Publish()
		}
	}
	m.cycle++
}

// observePEs fills the PE side of a periodic metrics snapshot: per-PE
// instructions retired and stall cycles, served as labeled series at
// /metrics.
func (m *Machine) observePEs(sn *obs.Snapshot) {
	sn.PEInstructions = make([]int64, len(m.pes))
	sn.PEStallCycles = make([]int64, len(m.pes))
	for i, p := range m.pes {
		st := p.Stats()
		sn.PEInstructions[i] = st.Instructions.Value()
		sn.PEStallCycles[i] = st.IdleCycles.Value()
	}
}

// Done reports whether every PE has halted and all traffic has drained.
func (m *Machine) Done() bool {
	for _, p := range m.pes {
		if !p.Halted() || !p.Drained() {
			return false
		}
	}
	if len(m.idealPending) > 0 {
		return false
	}
	return m.net.InFlight() == 0 && m.bank.Idle()
}

// Run steps until Done or the network-cycle limit; it reports the PE
// cycles elapsed and whether the machine finished.
func (m *Machine) Run(limit int64) (peCycles int64, done bool) {
	for m.cycle < limit {
		if m.Done() {
			return m.peCycles, true
		}
		m.Step()
	}
	return m.peCycles, m.Done()
}

// MustRun is Run that panics when the limit is hit — for tests and
// benchmarks where non-termination is a bug.
func (m *Machine) MustRun(limit int64) int64 {
	c, done := m.Run(limit)
	if !done {
		panic(fmt.Sprintf("machine: not done after %d network cycles (inflight=%d)",
			limit, m.net.InFlight()))
	}
	return c
}

// ReadShared reads the word at linear shared address a, bypassing timing.
func (m *Machine) ReadShared(a int64) int64 { return m.bank.Read(a) }

// WriteShared initializes the word at linear shared address a, bypassing
// timing (the loader's job).
func (m *Machine) WriteShared(a, v int64) { m.bank.Write(a, v) }

// ReadSharedF reads a float64 stored as IEEE bits.
func (m *Machine) ReadSharedF(a int64) float64 {
	return math.Float64frombits(uint64(m.bank.Read(a)))
}

// WriteSharedF stores a float64 as IEEE bits.
func (m *Machine) WriteSharedF(a int64, v float64) {
	m.bank.Write(a, int64(math.Float64bits(v)))
}
