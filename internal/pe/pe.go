// Package pe models the Ultracomputer's processing elements and their
// processor-network interfaces (PNIs, §3.4/§3.5).
//
// A PE couples a Core — the instruction-executing part, either the mini
// ISA interpreter in internal/isa or a goroutine-backed program (GoCore)
// — to a PNI that translates linear shared addresses to (module, word)
// pairs via hashing, assigns network-unique request IDs, enforces the
// pipelining restrictions (at most one outstanding reference per memory
// location, bounded outstanding requests), and matches replies back to
// the core.
//
// The paper's PEs continue executing past an outstanding load, marking
// the target register locked (§3.5); cores express that by issuing
// requests with tags and stalling only when a locked value is consumed.
package pe

import (
	"fmt"

	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// TickResult reports what a core did with one processor cycle.
type TickResult struct {
	// Executed is true when an instruction completed this cycle; false
	// means the cycle was lost waiting (a locked register was consumed,
	// or the PNI refused an issue).
	Executed bool
	// LocalRef marks an executed instruction that referenced local
	// (private, cache-resident) memory.
	LocalRef bool
	// Halted means the core has finished; it will not execute again.
	Halted bool
}

// Core is the instruction-executing part of a PE.
type Core interface {
	// Tick gives the core one processor cycle. The core may call
	// env.Issue at most a few times (retrying is allowed) and reports
	// what happened.
	Tick(env *Env) TickResult
	// Complete delivers the result of a shared-memory request
	// previously issued with the given tag.
	Complete(tag int, value int64)
}

// Stats aggregates one PE's activity, feeding Table 1's columns.
type Stats struct {
	Instructions sim.Counter    // instructions executed
	IdleCycles   sim.Counter    // cycles lost waiting
	LocalRefs    sim.Counter    // private-memory references (cache-satisfied)
	SharedRefs   sim.Counter    // shared-memory requests issued
	SharedLoads  sim.Counter    // value-returning shared requests (CM loads)
	CMWait       sim.Mean       // per-request issue-to-complete time (PE cycles)
	CMWaitHist   *sim.Histogram // full access-time distribution

	// Stall attribution: every IdleCycles tick lands in exactly one of
	// these three buckets (see obs.StallCause).
	IdleMemory   sim.Counter // waiting on a locked register or fence
	IdleNetFull  sim.Counter // network refused the injection (backpressure)
	IdlePipeline sim.Counter // PNI pipelining rules refused the issue
}

// PE is one processing element.
type PE struct {
	id     int
	core   Core
	pni    *PNI
	stats  Stats
	halted bool

	// probe receives PE-side events; probeScale converts the PE cycles
	// Tick runs on to the network cycles events are stamped with.
	probe      obs.Probe
	probeScale int64
	stall      obs.StallCause // current stall run's cause, CauseNone when running

	// prof receives guest-profiler hooks; pcer is the core's PC
	// capability (cached at SetProfiler), profPC the pc captured at the
	// top of the current tick so Issue/Deliver hooks see the pc of the
	// issuing instruction rather than wherever the core moved to.
	prof   Profiler
	pcer   PCer
	profPC int

	// env is the Env handed to the core each tick, a field rather than a
	// stack value because passing &env through the Core interface would
	// force a heap allocation every cycle.
	env Env
}

// probeSettable lets a core receive the probe the machine attached to
// its PE (GoCore and isa.Core forward it to their caches).
type probeSettable interface {
	SetProbe(p obs.Probe, pe int)
}

// Profiler is the guest-profiler sink (internal/obs/prof satisfies it
// implicitly). Hooks follow the probe contract: one nil check when off,
// and callees must not retain references past the call. All three are
// invoked from the PE tick/deliver phases on the simulating goroutine,
// so the profiler may keep per-PE state without locking.
type Profiler interface {
	// ProfCycle attributes one elapsed PE cycle to the guest pc that was
	// current when the cycle began, classified coarsely; the profiler
	// refines ProfExecute into cache-hit and (retroactively) spin.
	ProfCycle(pe, pc int, state obs.ProfState)
	// ProfIssue records a shared-memory request leaving the PE: linear is
	// the guest address, hashed its (module, word) translation.
	ProfIssue(pe, pc int, op msg.Op, linear int64, hashed msg.Addr)
	// ProfDeliver records a reply arriving: pc is the instruction that
	// issued the request, wait the issue-to-complete time in PE cycles.
	ProfDeliver(pe, pc int, op msg.Op, linear int64, value int64, wait int64)
}

// PCer is the optional Core capability the profiler needs to attribute
// cycles to guest pcs (isa.Core has it; GoCore does not — its cycles
// land on pc 0).
type PCer interface {
	PC() int
}

// SetProfiler attaches a guest-profiler sink (nil detaches).
func (p *PE) SetProfiler(pr Profiler) {
	p.prof = pr
	p.pcer = nil
	if pr != nil {
		p.pcer, _ = p.core.(PCer)
	}
}

// SetProbe attaches an event probe; scale is the number of network
// cycles per PE cycle (events are stamped in network cycles). Cores
// that can carry a probe (for cache events) receive it too.
func (p *PE) SetProbe(pr obs.Probe, scale int64) {
	if scale < 1 {
		scale = 1
	}
	p.probe = pr
	p.probeScale = scale
	if ps, ok := p.core.(probeSettable); ok {
		ps.SetProbe(pr, p.id)
	}
}

// SetTracer attaches a request-tracing sampler to the PNI (nil
// detaches): sampled requests leave the PE carrying a trace context.
func (p *PE) SetTracer(t TraceSampler) { p.pni.tracer = t }

// New builds a PE around core with a PNI that hashes addresses with h and
// injects into the network via inject. maxOutstanding bounds concurrent
// shared requests (the paper's register-locking design allows several).
func New(id int, core Core, h memory.Hasher, inject func(msg.Request) bool, maxOutstanding int) *PE {
	p := &PE{
		id:   id,
		core: core,
		pni:  newPNI(id, h, inject, maxOutstanding),
	}
	p.stats.CMWaitHist = sim.NewHistogram(256)
	return p
}

// ID reports the PE number.
func (p *PE) ID() int { return p.id }

// Stats exposes the PE's counters.
func (p *PE) Stats() *Stats { return &p.stats }

// PNI exposes the network interface (for tests and the machine).
func (p *PE) PNI() *PNI { return p.pni }

// Halted reports whether the core has finished.
func (p *PE) Halted() bool { return p.halted }

// Drained reports whether the PE has no outstanding shared requests.
func (p *PE) Drained() bool { return p.pni.Outstanding() == 0 }

// Tick runs one processor cycle.
func (p *PE) Tick(cycle int64, npe int) {
	if p.halted {
		if p.prof != nil {
			// Attribute even post-halt cycles so profiles sum to exactly
			// PEs x measured cycles.
			p.prof.ProfCycle(p.id, p.profPC, obs.ProfHalted)
		}
		return
	}
	if p.prof != nil && p.pcer != nil {
		p.profPC = p.pcer.PC()
	}
	p.env = Env{pe: p, cycle: cycle, npe: npe}
	r := p.core.Tick(&p.env)
	switch {
	case r.Halted:
		p.halted = true
		p.endStall(cycle)
		if p.prof != nil {
			p.prof.ProfCycle(p.id, p.profPC, obs.ProfExecute)
		}
	case r.Executed:
		p.stats.Instructions.Inc()
		if r.LocalRef {
			p.stats.LocalRefs.Inc()
		}
		p.endStall(cycle)
		if p.prof != nil {
			p.prof.ProfCycle(p.id, p.profPC, obs.ProfExecute)
		}
	default:
		p.stats.IdleCycles.Inc()
		cause := obs.CauseMemory
		switch {
		case p.env.refusedNet:
			cause = obs.CauseNetFull
			p.stats.IdleNetFull.Inc()
		case p.env.refusedPipe:
			cause = obs.CausePipeline
			p.stats.IdlePipeline.Inc()
		default:
			p.stats.IdleMemory.Inc()
		}
		if p.prof != nil {
			st := obs.ProfMemWait
			if cause == obs.CauseNetFull {
				st = obs.ProfNetStall
			}
			p.prof.ProfCycle(p.id, p.profPC, st)
		}
		if p.probe != nil && p.stall != cause {
			if p.stall != obs.CauseNone {
				p.probe.Emit(obs.Event{
					Cycle: cycle * p.probeScale, Kind: obs.KindStallEnd,
					PE: p.id, Stage: -1, MM: -1, Copy: -1, Cause: p.stall,
				})
			}
			p.probe.Emit(obs.Event{
				Cycle: cycle * p.probeScale, Kind: obs.KindStallBegin,
				PE: p.id, Stage: -1, MM: -1, Copy: -1, Cause: cause,
			})
		}
		p.stall = cause
	}
}

// endStall closes the current stall run, if any.
func (p *PE) endStall(cycle int64) {
	if p.stall == obs.CauseNone {
		return
	}
	if p.probe != nil {
		p.probe.Emit(obs.Event{
			Cycle: cycle * p.probeScale, Kind: obs.KindStallEnd,
			PE: p.id, Stage: -1, MM: -1, Copy: -1, Cause: p.stall,
		})
	}
	p.stall = obs.CauseNone
}

// Deliver routes a network reply to the core, recording the round trip in
// PE cycles.
func (p *PE) Deliver(rep msg.Reply, cycle int64) {
	pr, ok := p.pni.complete(rep)
	if !ok {
		panic(fmt.Sprintf("pe %d: reply %v matches no outstanding request", p.id, rep))
	}
	p.stats.CMWait.Observe(float64(cycle - pr.issuedAt))
	p.stats.CMWaitHist.Observe(cycle - pr.issuedAt)
	if p.prof != nil {
		p.prof.ProfDeliver(p.id, pr.pc, rep.Op, pr.addr, rep.Value, cycle-pr.issuedAt)
	}
	if pr.tag >= 0 {
		p.core.Complete(pr.tag, rep.Value)
	}
}

// Env is the per-tick view a core has of its PE.
type Env struct {
	pe    *PE
	cycle int64
	npe   int
	// tagShift offsets completion tags; MultiCore uses it to give each
	// hardware-multiprogrammed stream a disjoint tag range.
	tagShift int
	// refusedNet/refusedPipe record why an Issue failed this tick, for
	// stall attribution: the network had no space vs. the PNI's
	// pipelining rules said no.
	refusedNet  bool
	refusedPipe bool
}

// PEID reports the PE number.
func (e *Env) PEID() int { return e.pe.id }

// NumPE reports the machine's PE count.
func (e *Env) NumPE() int { return e.npe }

// Cycle reports the current processor cycle.
func (e *Env) Cycle() int64 { return e.cycle }

// Issue offers a shared-memory request to the PNI. tag identifies the
// destination for the returned value (tag < 0: no completion callback is
// wanted, e.g. for stores). It reports false when the PNI cannot accept
// the request this cycle — the pipelining restrictions forbid it or the
// network is full — and the core must retry.
func (e *Env) Issue(op msg.Op, addr int64, operand int64, tag int) bool {
	if tag >= 0 {
		tag += e.tagShift
	}
	if !e.pe.pni.canIssue(addr) {
		e.refusedPipe = true
		return false
	}
	ok := e.pe.pni.issue(op, addr, operand, tag, e.cycle, e.pe.profPC)
	if !ok {
		e.refusedNet = true
		return false
	}
	e.pe.stats.SharedRefs.Inc()
	if op.ReturnsValue() {
		e.pe.stats.SharedLoads.Inc()
	}
	if e.pe.prof != nil {
		e.pe.prof.ProfIssue(e.pe.id, e.pe.profPC, op, addr, e.pe.pni.hash.Map(addr))
	}
	return true
}

// CanIssue reports whether a request to addr could be accepted by the
// pipelining rules right now (it does not probe network space).
func (e *Env) CanIssue(addr int64) bool { return e.pe.pni.canIssue(addr) }

// Pending reports how many of this PE's shared-memory requests are still
// outstanding (stores awaiting acknowledgement included).
func (e *Env) Pending() int { return e.pe.pni.Outstanding() }
