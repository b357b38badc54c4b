// Package memory implements the Ultracomputer's memory modules (MMs) and
// the memory-side behavior of the memory network interface (MNI): request
// service with a fixed access latency, the MNI ALU that executes
// fetch-and-phi operations atomically at the module (§3.1.3), and the
// virtual-address hashing that spreads references uniformly over the
// modules (§3.1.4).
package memory

import (
	"fmt"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// Port is the memory side of the interconnect: the module pulls fully
// assembled requests and pushes replies. A false return from Reply means
// the MNI output queue is momentarily full and the module must retry.
type Port interface {
	// Dequeue removes the next request waiting at this module.
	Dequeue() (msg.Request, bool)
	// Reply offers a reply to the network.
	Reply(msg.Reply) bool
}

// Module is one memory module with its MNI adder. It serves one request
// every Latency cycles, applying the request's fetch-and-phi operation to
// the addressed word and returning the old value.
type Module struct {
	id      int
	latency int64
	words   map[int]int64

	busyUntil int64
	current   msg.Request
	busy      bool
	pending   *msg.Reply

	// Served counts completed memory operations; a hot spot served
	// through a combining network shows Served far below the number of
	// requests issued.
	Served sim.Counter

	probe obs.Probe
	// trace is the request-tracing stream (internal/obs/reqtrace): MNI
	// events of traced requests only, kept separate from the main probe
	// so sampled tracing never requires full event recording.
	trace obs.Probe
	// prof is the guest profiler's serve sink (nil when off).
	prof ServeProfiler
}

// ServeProfiler receives completed memory operations for the guest
// profiler's contention heatmap (internal/obs/prof satisfies it). The
// profiler keeps its counters per module.
type ServeProfiler interface {
	ProfServe(mm, word int, op msg.Op)
}

// SetProbe attaches an event probe (nil detaches; the default).
func (m *Module) SetProbe(p obs.Probe) { m.probe = p }

// SetTracer attaches the request-tracing stream (nil detaches).
func (m *Module) SetTracer(p obs.Probe) { m.trace = p }

// SetProfiler attaches the guest profiler's serve sink (nil detaches).
func (m *Module) SetProfiler(p ServeProfiler) { m.prof = p }

// emitBegin records the start of one MNI service.
func (m *Module) emitBegin(r msg.Request, cycle int64) {
	if m.probe == nil {
		return
	}
	m.probe.Emit(obs.Event{
		Cycle: cycle, Kind: obs.KindMNIBegin, PE: r.PE, Stage: -1,
		MM: m.id, Copy: -1, ID: r.ID, Op: r.Op, Addr: r.Addr,
	})
}

// NewModule returns module id with the given access latency in cycles
// (latency < 1 is treated as 1). All words read as zero until written.
func NewModule(id int, latency int64) *Module {
	if latency < 1 {
		latency = 1
	}
	return &Module{id: id, latency: latency, words: make(map[int]int64)}
}

// ID reports the module number.
func (m *Module) ID() int { return m.id }

// Peek reads a word directly, bypassing timing — for result checking and
// for loaders that preinitialize memory.
func (m *Module) Peek(word int) int64 { return m.words[word] }

// Poke writes a word directly, bypassing timing.
func (m *Module) Poke(word int, v int64) { m.words[word] = v }

// Idle reports whether the module has no operation in progress and no
// reply awaiting MNI space.
func (m *Module) Idle() bool { return !m.busy && m.pending == nil }

// Accept hands the module a request directly (callers that pull from the
// network themselves, e.g. to timestamp arrivals). The module must be
// Idle.
func (m *Module) Accept(r msg.Request, cycle int64) {
	if !m.Idle() {
		panic(fmt.Sprintf("memory: Accept on busy module %d", m.id))
	}
	m.busy = true
	m.current = r
	m.busyUntil = cycle + m.latency
	if m.probe != nil {
		m.emitBegin(r, cycle)
	}
	if m.trace != nil && r.TC.ID != 0 {
		m.trace.Emit(obs.Event{
			Cycle: cycle, Kind: obs.KindMNIBegin, PE: r.PE, Stage: -1,
			MM: m.id, Copy: -1, ID: r.ID, Op: r.Op, Addr: r.Addr,
		})
	}
}

// Step advances the module one cycle against its network port: it first
// retries any reply blocked on MNI space, completes the operation in
// progress when its latency has elapsed, and starts a new request when
// idle.
func (m *Module) Step(cycle int64, port Port) {
	if m.pending != nil {
		if port.Reply(*m.pending) {
			if m.trace != nil && m.pending.TC.ID != 0 {
				m.trace.Emit(obs.Event{
					Cycle: cycle, Kind: obs.KindReplyHop, PE: m.pending.PE,
					Stage: -1, MM: m.id, Copy: -1, ID: m.pending.ID,
					Op: m.pending.Op, Addr: m.pending.Addr,
				})
			}
			m.pending = nil
		} else {
			return
		}
	}
	if m.busy && cycle >= m.busyUntil {
		r := m.current
		if r.Addr.MM != m.id {
			panic(fmt.Sprintf("memory: module %d received request for MM %d", m.id, r.Addr.MM))
		}
		newVal, ret := msg.Apply(r.Op, m.words[r.Addr.Word], r.Operand)
		m.words[r.Addr.Word] = newVal
		m.Served.Inc()
		m.busy = false
		if m.prof != nil {
			m.prof.ProfServe(m.id, r.Addr.Word, r.Op)
		}
		if m.probe != nil {
			m.probe.Emit(obs.Event{
				Cycle: cycle, Kind: obs.KindMNIServe, PE: r.PE, Stage: -1,
				MM: m.id, Copy: -1, ID: r.ID, Op: r.Op, Addr: r.Addr,
				Value: ret,
			})
		}
		if m.trace != nil && r.TC.ID != 0 {
			m.trace.Emit(obs.Event{
				Cycle: cycle, Kind: obs.KindMNIServe, PE: r.PE, Stage: -1,
				MM: m.id, Copy: -1, ID: r.ID, Op: r.Op, Addr: r.Addr,
				Value: ret,
			})
		}
		rep := msg.Reply{ID: r.ID, PE: r.PE, Op: r.Op, Addr: r.Addr, Value: ret, TC: r.TC}
		if !port.Reply(rep) {
			m.pending = &rep
			return
		}
		if m.trace != nil && rep.TC.ID != 0 {
			m.trace.Emit(obs.Event{
				Cycle: cycle, Kind: obs.KindReplyHop, PE: rep.PE, Stage: -1,
				MM: m.id, Copy: -1, ID: rep.ID, Op: rep.Op, Addr: rep.Addr,
			})
		}
	}
	if !m.busy && m.pending == nil {
		if r, ok := port.Dequeue(); ok {
			m.busy = true
			m.current = r
			m.busyUntil = cycle + m.latency
			if m.probe != nil {
				m.emitBegin(r, cycle)
			}
			if m.trace != nil && r.TC.ID != 0 {
				m.trace.Emit(obs.Event{
					Cycle: cycle, Kind: obs.KindMNIBegin, PE: r.PE, Stage: -1,
					MM: m.id, Copy: -1, ID: r.ID, Op: r.Op, Addr: r.Addr,
				})
			}
		}
	}
}

// Bank is the set of all N modules plus the address hasher, presenting a
// flat shared address space for loaders and checkers.
type Bank struct {
	Modules []*Module
	Hash    Hasher
}

// NewBank creates n modules with the given access latency and hashing
// scheme.
func NewBank(n int, latency int64, h Hasher) *Bank {
	b := &Bank{Hash: h}
	for i := 0; i < n; i++ {
		b.Modules = append(b.Modules, NewModule(i, latency))
	}
	return b
}

// Read reads the word at linear shared address a, bypassing timing.
func (b *Bank) Read(a int64) int64 {
	addr := b.Hash.Map(a)
	return b.Modules[addr.MM].Peek(addr.Word)
}

// Write writes the word at linear shared address a, bypassing timing.
func (b *Bank) Write(a, v int64) {
	addr := b.Hash.Map(a)
	b.Modules[addr.MM].Poke(addr.Word, v)
}

// TotalServed sums completed operations across all modules.
func (b *Bank) TotalServed() int64 {
	var t int64
	for _, m := range b.Modules {
		t += m.Served.Value()
	}
	return t
}

// SetProbe attaches an event probe to every module.
func (b *Bank) SetProbe(p obs.Probe) {
	for _, m := range b.Modules {
		m.SetProbe(p)
	}
}

// SetTracer attaches the request-tracing stream to every module.
func (b *Bank) SetTracer(p obs.Probe) {
	for _, m := range b.Modules {
		m.SetTracer(p)
	}
}

// SetProfiler attaches the guest profiler's serve sink to every module.
func (b *Bank) SetProfiler(p ServeProfiler) {
	for _, m := range b.Modules {
		m.SetProfiler(p)
	}
}

// Observe fills the memory side of a periodic metrics snapshot: the
// fraction of modules mid-access, the cumulative served count, and the
// per-module served counts behind the service-skew diagnostic.
func (b *Bank) Observe(sn *obs.Snapshot) {
	busy := 0
	sn.MMServedPerModule = make([]int64, len(b.Modules))
	for i, m := range b.Modules {
		if !m.Idle() {
			busy++
		}
		sn.MMServedPerModule[i] = m.Served.Value()
		sn.MMServed += m.Served.Value()
	}
	if len(b.Modules) > 0 {
		sn.MMBusyFrac = float64(busy) / float64(len(b.Modules))
	}
}

// Idle reports whether every module is idle.
func (b *Bank) Idle() bool {
	for _, m := range b.Modules {
		if !m.Idle() {
			return false
		}
	}
	return true
}
