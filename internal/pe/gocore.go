package pe

import (
	"math"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
)

// GoCore runs a PE program written as an ordinary Go function against the
// simulated machine. The program runs in its own goroutine in lockstep
// with the simulator: every Ctx call costs simulated processor cycles and
// shared-memory traffic, so timing results are deterministic — the
// goroutine is always either blocked offering its next action or blocked
// awaiting that action's result.
//
// This mirrors the paper's methodology: WASHCLOTH simulated parallel
// scientific programs at the instruction level; here the arithmetic runs
// natively in Go while every memory reference and compute burst is
// charged to the simulated PE.
type GoCore struct {
	prog     Program
	actions  chan *action
	started  bool
	cur      *action
	waiting  map[int]*action // tag -> blocking action awaiting its reply
	handles  map[int]*Handle // tag -> async handle awaiting its reply
	nextTag  int
	freeTags []int // recycled tags, so the tag space stays bounded
	halted   bool

	probe   obs.Probe // forwarded to caches the program attaches
	probePE int
}

// SetProbe stores the probe the machine attached to this PE so that
// caches created later via Ctx.NewCache emit events through it.
func (g *GoCore) SetProbe(p obs.Probe, pe int) {
	g.probe = p
	g.probePE = pe
}

// Program is the body of a PE: it runs once and its return halts the PE.
type Program func(ctx *Ctx)

// NewGoCore wraps prog.
func NewGoCore(prog Program) *GoCore {
	return &GoCore{
		prog:    prog,
		actions: make(chan *action),
		waiting: make(map[int]*action),
		handles: make(map[int]*Handle),
	}
}

type actionKind int

const (
	aCompute actionKind = iota
	aValueOp            // blocking shared op returning a value
	aStore              // asynchronous shared store
	aAsync              // asynchronous value op via a Handle
	aWait               // consume a Handle's value
	aFence              // wait until no requests are outstanding
)

type action struct {
	kind     actionKind
	n        int
	localRef bool
	op       msg.Op
	addr     int64
	operand  int64
	h        *Handle
	done     chan int64

	issued    bool
	completed bool
	value     int64
}

// Handle names an asynchronous shared-memory request (the paper's locked
// register): the PE keeps executing and stalls only when Wait consumes a
// value that has not yet returned.
type Handle struct {
	core  *GoCore
	ready bool
	value int64
}

// Wait blocks the simulated PE until the value arrives, then returns it.
// If the value already arrived, Wait is free.
func (h *Handle) Wait() int64 {
	a := &action{kind: aWait, h: h, done: make(chan int64, 1)}
	h.core.send(a)
	return <-a.done
}

// WaitF is Wait for a float64 stored as IEEE bits.
func (h *Handle) WaitF() float64 { return math.Float64frombits(uint64(h.Wait())) }

func (g *GoCore) send(a *action) { g.actions <- a }

// Tick implements Core.
func (g *GoCore) Tick(env *Env) TickResult {
	if !g.started {
		g.started = true
		//ultravet:ok hotalloc one-time guest start on the first tick
		ctx := &Ctx{core: g, pe: env.PEID(), npe: env.NumPE()}
		// The guest goroutine advances only inside this PE's own Tick
		// via the actions channel handshake, so it never runs
		// concurrently with phase code.
		//ultravet:ok hotalloc one-time guest start on the first tick
		go func() { //ultravet:ok stagecheck tick-synchronized guest goroutine
			g.prog(ctx)
			close(g.actions)
		}()
	}
	if g.halted {
		return TickResult{Halted: true}
	}
	for {
		if g.cur == nil {
			a, ok := <-g.actions
			if !ok {
				g.halted = true
				return TickResult{Halted: true}
			}
			g.cur = a
		}
		a := g.cur
		switch a.kind {
		case aCompute:
			if a.n <= 0 {
				// The guest goroutine is parked on <-a.done and only this
				// PE's Tick sends: the channel is the tick-synchronized
				// handshake.
				a.done <- 0
				g.cur = nil
				continue
			}
			a.n--
			if a.n == 0 {
				a.done <- 0
				g.cur = nil
			}
			return TickResult{Executed: true, LocalRef: a.localRef}

		case aValueOp:
			if !a.issued {
				tag := g.peekTag()
				if env.Issue(a.op, a.addr, a.operand, tag) {
					g.takeTag()
					a.issued = true
					g.waiting[tag] = a
					return TickResult{Executed: true}
				}
				return TickResult{}
			}
			if a.completed {
				a.done <- a.value
				g.cur = nil
				continue // the data arrived earlier; no cycle lost now
			}
			return TickResult{} // idle, waiting on central memory

		case aStore:
			if env.Issue(a.op, a.addr, a.operand, -1) {
				a.done <- 0
				g.cur = nil
				return TickResult{Executed: true}
			}
			return TickResult{}

		case aAsync:
			tag := g.peekTag()
			if env.Issue(a.op, a.addr, a.operand, tag) {
				g.takeTag()
				g.handles[tag] = a.h
				a.done <- 0
				g.cur = nil
				return TickResult{Executed: true}
			}
			return TickResult{}

		case aWait:
			if a.h.ready {
				a.done <- a.h.value
				g.cur = nil
				continue // value already present: consuming it is free
			}
			return TickResult{} // idle, register still locked

		case aFence:
			if env.Pending() == 0 {
				a.done <- 0
				g.cur = nil
				continue
			}
			return TickResult{} // idle, draining the store pipeline
		}
	}
}

// peekTag returns the tag the next issue would use; takeTag consumes it.
// Tags are recycled on completion so the tag space stays bounded by the
// outstanding-request limit (required by MultiCore's tag partitioning).
func (g *GoCore) peekTag() int {
	if n := len(g.freeTags); n > 0 {
		return g.freeTags[n-1]
	}
	return g.nextTag
}

func (g *GoCore) takeTag() {
	if n := len(g.freeTags); n > 0 {
		g.freeTags = g.freeTags[:n-1]
		return
	}
	g.nextTag++
}

// Complete implements Core: a shared-memory reply arrived.
func (g *GoCore) Complete(tag int, value int64) {
	if a, ok := g.waiting[tag]; ok {
		delete(g.waiting, tag)
		g.freeTags = append(g.freeTags, tag)
		a.completed = true
		a.value = value
		return
	}
	if h, ok := g.handles[tag]; ok {
		delete(g.handles, tag)
		g.freeTags = append(g.freeTags, tag)
		h.ready = true
		h.value = value
		return
	}
	panic("pe: completion for unknown tag")
}

// Ctx is the API a Program uses to act on the machine. Every method costs
// simulated time; programs must coordinate only through shared memory
// (fetch-and-add and friends), never through Go-level synchronization.
type Ctx struct {
	core *GoCore
	pe   int
	npe  int
}

// PE reports this processing element's number.
func (c *Ctx) PE() int { return c.pe }

// NumPE reports the machine's PE count.
func (c *Ctx) NumPE() int { return c.npe }

// Compute spends n processor cycles of pure register-to-register work.
func (c *Ctx) Compute(n int) {
	// One action per guest operation is the price of the Go-guest
	// programming model; GoCore models programmability, not host cost
	// (use isa.Core for allocation-free guests).
	//ultravet:ok hotalloc guest handshake allocates one action per operation by design
	a := &action{kind: aCompute, n: n, done: make(chan int64, 1)}
	c.core.send(a)
	<-a.done
}

// Private spends n processor cycles each making one private-memory
// reference (satisfied by the local cache, §3.2's 95%-hit assumption).
func (c *Ctx) Private(n int) {
	a := &action{kind: aCompute, n: n, localRef: true, done: make(chan int64, 1)}
	c.core.send(a)
	<-a.done
}

// FetchOp performs a blocking fetch-and-phi on shared memory, returning
// the fetched (old) value.
func (c *Ctx) FetchOp(op msg.Op, addr, operand int64) int64 {
	a := &action{kind: aValueOp, op: op, addr: addr, operand: operand, done: make(chan int64, 1)}
	c.core.send(a)
	return <-a.done
}

// Load reads shared memory, blocking until the value returns.
func (c *Ctx) Load(addr int64) int64 { return c.FetchOp(msg.Load, addr, 0) }

// FetchAdd atomically adds e to shared memory and returns the old value.
func (c *Ctx) FetchAdd(addr, e int64) int64 { return c.FetchOp(msg.FetchAdd, addr, e) }

// Swap atomically exchanges the operand with shared memory.
func (c *Ctx) Swap(addr, v int64) int64 { return c.FetchOp(msg.Swap, addr, v) }

// TestAndSet sets the low bit of the addressed word and reports whether
// it was already set (fetch-and-or, §2.4).
func (c *Ctx) TestAndSet(addr int64) bool { return c.FetchOp(msg.FetchOr, addr, 1)&1 != 0 }

// Store writes shared memory without waiting for the acknowledgement.
func (c *Ctx) Store(addr, v int64) {
	a := &action{kind: aStore, op: msg.Store, addr: addr, operand: v, done: make(chan int64, 1)}
	c.core.send(a)
	<-a.done
}

// FetchOpAsync issues a fetch-and-phi and returns immediately with a
// Handle (the locked register); the PE keeps executing.
func (c *Ctx) FetchOpAsync(op msg.Op, addr, operand int64) *Handle {
	h := &Handle{core: c.core}
	a := &action{kind: aAsync, op: op, addr: addr, operand: operand, h: h, done: make(chan int64, 1)}
	c.core.send(a)
	<-a.done
	return h
}

// LoadAsync prefetches a shared word.
func (c *Ctx) LoadAsync(addr int64) *Handle { return c.FetchOpAsync(msg.Load, addr, 0) }

// FetchAddAsync issues a fetch-and-add without waiting.
func (c *Ctx) FetchAddAsync(addr, e int64) *Handle {
	return c.FetchOpAsync(msg.FetchAdd, addr, e)
}

// Pause burns one processor cycle inside a busy-wait loop. It satisfies
// coord.Mem alongside para.Memory: on the ideal paracomputer a pause is
// free, on the simulated machine it costs an instruction.
func (c *Ctx) Pause() { c.Compute(1) }

// Fence stalls the PE until every outstanding shared-memory request —
// in particular pipelined stores — has been acknowledged. Asynchronous
// stores to *different* locations may complete out of order (§3.1.4's
// pipelining caveat), so a store that publishes data must be fenced
// before the synchronization that announces it; coord.Barrier.Wait
// fences automatically.
func (c *Ctx) Fence() {
	a := &action{kind: aFence, done: make(chan int64, 1)}
	c.core.send(a)
	<-a.done
}

// LoadF reads a shared word holding IEEE float64 bits.
func (c *Ctx) LoadF(addr int64) float64 { return math.Float64frombits(uint64(c.Load(addr))) }

// StoreF writes a float64 as IEEE bits.
func (c *Ctx) StoreF(addr int64, v float64) { c.Store(addr, int64(math.Float64bits(v))) }

// LoadAsyncF prefetches a shared float64.
func (c *Ctx) LoadAsyncF(addr int64) *Handle { return c.LoadAsync(addr) }
