// Package reqtrace implements span-based causal tracing for individual
// memory requests: the per-request view the aggregate telemetry of
// internal/obs cannot give. A sampled request carries a compact trace
// context (msg.TraceCtx) from PE issue through every switch stage to the
// memory module and back; every hop-record site in the network and
// memory layers emits onto a dedicated trace stream, and the Tracer
// assembles the events into Span timelines — per-hop enqueue/dequeue
// cycles, wait-buffer residency, and the combining genealogy of §3.3
// (a child span links to the parent that absorbed it; decombining on the
// return path closes the tree).
//
// Sampling is a pure seeded hash of the request ID, so the decision
// needs no shared state and runs of the same seed trace exactly the
// same requests. Events arrive in the simulator's fixed phase order, so
// same-seed span dumps are byte-identical.
//
// The Tracer doubles as a flight recorder: a bounded ring of the last
// completed spans plus a reservoir of slow outliers, dumped when the
// live conformance monitor fires an alert (obs/live.Feed) or on demand
// over HTTP (/trace/flight).
package reqtrace

import (
	"math"
	"sync"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// Config parameterizes a Tracer.
type Config struct {
	// Rate is the per-request sampling probability: 1 traces everything,
	// 0 traces nothing (the tracer still costs one compare per hop).
	Rate float64
	// Seed drives the sampling hash and the slow-outlier reservoir
	// (default 1). Runs with equal seeds trace identical request sets.
	Seed uint64
	// Ring bounds the flight recorder's ring of completed spans
	// (default 1024).
	Ring int
	// SlowCap bounds the slow-outlier reservoir (default 64).
	SlowCap int
	// SlowFactor marks a completion slow when its latency exceeds
	// SlowFactor × the running mean latency (default 3).
	SlowFactor float64
	// MinSlowSamples is how many completions seed the running mean
	// before outlier detection starts (default 32).
	MinSlowSamples int64
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Ring <= 0 {
		c.Ring = 1024
	}
	if c.SlowCap <= 0 {
		c.SlowCap = 64
	}
	if c.SlowFactor <= 0 {
		c.SlowFactor = 3
	}
	if c.MinSlowSamples <= 0 {
		c.MinSlowSamples = 32
	}
	return c
}

// Tracer assembles trace-stream events into request spans and keeps the
// flight recorder. It implements obs.Probe for the machine's trace
// stream and the sampling decision for the PNIs.
//
// All events of one run arrive on the simulating goroutine; the mutex
// exists for concurrent HTTP exports, not for emission.
//
//lockcheck:guards mu: active, ring, head, n, slow, slowSeen, rng, completed, combineLinks, dropped, latN, latMean
type Tracer struct {
	cfg  Config
	all  bool   // Rate >= 1: trace everything
	thr  uint64 // sampling cutoff on the 64-bit hash
	seed uint64

	mu     sync.Mutex
	active map[uint64]*Span
	// ring is the circular flight-recorder buffer of completed spans in
	// completion order; head indexes the oldest.
	ring     []*Span
	head     int
	n        int
	slow     []*Span
	slowSeen int64
	rng      *sim.Rand

	completed    int64
	combineLinks int64
	dropped      int64
	latN         int64
	latMean      float64
}

// New builds a tracer. The zero Config samples nothing but still
// records adopted combine partners of explicitly traced requests.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{
		cfg:    cfg,
		seed:   cfg.Seed,
		active: make(map[uint64]*Span),
		ring:   make([]*Span, cfg.Ring),
		rng:    sim.NewRand(cfg.Seed ^ 0x5ca1ab1e),
	}
	switch {
	case cfg.Rate >= 1:
		t.all = true
	case cfg.Rate > 0:
		t.thr = uint64(cfg.Rate * float64(math.MaxUint64))
	}
	return t
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ContextFor decides at issue time whether request id is traced,
// returning the context it must carry. The decision is a pure hash of
// (id, seed): no state, so equal-seed runs sample identical requests
// regardless of timing.
func (t *Tracer) ContextFor(id uint64) msg.TraceCtx {
	if t.all {
		return msg.TraceCtx{ID: id}
	}
	if t.thr == 0 || splitmix64(id^t.seed) >= t.thr {
		return msg.TraceCtx{}
	}
	return msg.TraceCtx{ID: id}
}

// Rate reports the configured sampling rate.
func (t *Tracer) Rate() float64 { return t.cfg.Rate }

// Emit assembles one trace-stream event into its span. It implements
// obs.Probe; the machine's hop-record sites emit here only for events
// whose carrier has a non-zero TraceCtx.
func (t *Tracer) Emit(ev obs.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case obs.KindInject:
		// Allocation and bookkeeping below run only for sampled requests
		// (hop sites emit only on a non-zero TraceCtx), off the untraced
		// steady state the zero-alloc contract pins.
		//ultravet:ok hotalloc sampled-request path, off the untraced steady state
		s := &Span{
			ID: ev.ID, PE: ev.PE, Op: ev.Op.String(),
			MM: ev.Addr.MM, Word: ev.Addr.Word, Issued: ev.Cycle,
		}
		//ultravet:ok hotalloc sampled-request path, off the untraced steady state
		s.Hops = append(s.Hops, Hop{Kind: HopInject, Cycle: ev.Cycle, Stage: -1, Copy: ev.Copy, MM: -1})
		t.active[ev.ID] = s
	case obs.KindStageArrive:
		t.hop(ev.ID, Hop{Kind: HopEnqueue, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Q: int(ev.Value)})
	case obs.KindStageDepart:
		t.hop(ev.ID, Hop{Kind: HopDequeue, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1})
	case obs.KindCombine:
		// ev.ID is the absorbed child, ev.ID2 the surviving parent;
		// ev.Value carries the parent's PE for mid-flight adoption.
		child := t.spanOrAdopt(ev.ID, ev.PE, ev.Op.String(), ev.Addr, ev.Cycle)
		parent := t.spanOrAdopt(ev.ID2, int(ev.Value), "", ev.Addr, ev.Cycle)
		child.Parent = ev.ID2
		child.waitStart = ev.Cycle
		child.Hops = append(child.Hops, Hop{Kind: HopCombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID2})
		parent.Children = append(parent.Children, ev.ID)
		parent.Hops = append(parent.Hops, Hop{Kind: HopCombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID})
		t.combineLinks++
	case obs.KindDecombine:
		// ev.ID keys the wait-buffer record (the parent); ev.ID2 is the
		// recreated child reply.
		if p, ok := t.active[ev.ID]; ok {
			p.Hops = append(p.Hops, Hop{Kind: HopDecombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID2})
		}
		if c, ok := t.active[ev.ID2]; ok {
			c.Hops = append(c.Hops, Hop{Kind: HopDecombine, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1, Peer: ev.ID})
			c.WaitCycles = ev.Cycle - c.waitStart
		}
	case obs.KindMMArrive:
		t.hop(ev.ID, Hop{Kind: HopMMArrive, Cycle: ev.Cycle, Stage: -1, Copy: ev.Copy, MM: ev.MM})
	case obs.KindMNIBegin:
		s := t.hop(ev.ID, Hop{Kind: HopMNIBegin, Cycle: ev.Cycle, Stage: -1, Copy: -1, MM: ev.MM})
		if s != nil && s.Op == "" {
			s.Op = ev.Op.String()
		}
	case obs.KindMNIServe:
		s := t.hop(ev.ID, Hop{Kind: HopMNIServe, Cycle: ev.Cycle, Stage: -1, Copy: -1, MM: ev.MM})
		if s != nil && s.Op == "" {
			s.Op = ev.Op.String()
		}
	case obs.KindReplyHop:
		if ev.MM >= 0 {
			t.hop(ev.ID, Hop{Kind: HopReplyOut, Cycle: ev.Cycle, Stage: -1, Copy: ev.Copy, MM: ev.MM})
		} else {
			t.hop(ev.ID, Hop{Kind: HopReplyHop, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: -1})
		}
	case obs.KindReplyDepart:
		t.hop(ev.ID, Hop{Kind: HopReplyDepart, Cycle: ev.Cycle, Stage: ev.Stage, Copy: ev.Copy, MM: ev.MM})
	case obs.KindReplyDeliver:
		s, ok := t.active[ev.ID]
		if !ok {
			t.dropped++
			return
		}
		s.Hops = append(s.Hops, Hop{Kind: HopDeliver, Cycle: ev.Cycle, Stage: -1, Copy: -1, MM: -1})
		s.Value = ev.Value
		t.complete(s, ev.Cycle)
	default:
		t.dropped++
	}
}

// hop appends h to the active span id, returning the span (nil and a
// dropped count when the id is unknown — an event for a request whose
// span already closed or was never opened).
func (t *Tracer) hop(id uint64, h Hop) *Span {
	s, ok := t.active[id]
	if !ok {
		t.dropped++
		return nil
	}
	s.Hops = append(s.Hops, h)
	return s
}

// spanOrAdopt returns the active span for id, opening an adopted span if
// the request was not sampled at issue: combining genealogy is recorded
// completely whenever either party of a combine is traced, so a traced
// child's parent (and vice versa) enters the tree mid-flight.
func (t *Tracer) spanOrAdopt(id uint64, pe int, op string, addr msg.Addr, cycle int64) *Span {
	if s, ok := t.active[id]; ok {
		return s
	}
	//ultravet:ok hotalloc sampled-request path, off the untraced steady state
	s := &Span{
		ID: id, PE: pe, Op: op, MM: addr.MM, Word: addr.Word,
		Issued: cycle, Adopted: true,
	}
	t.active[id] = s
	return s
}

// complete closes a span: it leaves the active set, enters the flight
// ring, and — when its latency is an outlier against the running mean of
// completions before it — the slow reservoir. Completion order is the
// deterministic reply-delivery drain order, and the reservoir's
// replacement choices come from a seeded generator consumed only here,
// so the flight recorder's contents are reproducible too.
func (t *Tracer) complete(s *Span, cycle int64) {
	delete(t.active, s.ID)
	s.Done = cycle
	s.Latency = cycle - s.Issued
	t.completed++

	lat := float64(s.Latency)
	if t.latN >= t.cfg.MinSlowSamples && lat > t.cfg.SlowFactor*t.latMean {
		s.Slow = true
		t.slowSeen++
		if len(t.slow) < t.cfg.SlowCap {
			t.slow = append(t.slow, s)
		} else if j := t.rng.Intn(int(t.slowSeen)); j < t.cfg.SlowCap {
			t.slow[j] = s
		}
	}
	t.latN++
	t.latMean += (lat - t.latMean) / float64(t.latN)

	if t.n < len(t.ring) {
		t.ring[(t.head+t.n)%len(t.ring)] = s
		t.n++
	} else {
		t.ring[t.head] = s
		t.head = (t.head + 1) % len(t.ring)
	}
}

// Completed reports the number of spans closed so far.
func (t *Tracer) Completed() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.completed
}

// Active reports the number of spans still in flight.
func (t *Tracer) Active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}

// CombineLinks reports how many parent←child genealogy links have been
// recorded — on a combining hot spot this grows with the combining tree;
// with combining off it stays zero.
func (t *Tracer) CombineLinks() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.combineLinks
}

// Dropped reports trace events that matched no active span.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// MeanLatency reports the running mean latency of completed spans.
func (t *Tracer) MeanLatency() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latMean
}

// ringSpans returns the flight ring oldest-first. Callers hold mu.
func (t *Tracer) ringSpans() []*Span {
	out := make([]*Span, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(t.head+i)%len(t.ring)])
	}
	return out
}

// Spans snapshots the flight ring (completed spans, oldest first).
func (t *Tracer) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ringSpans()
}

// SlowSpans snapshots the slow-outlier reservoir in capture order.
func (t *Tracer) SlowSpans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.slow...)
}
