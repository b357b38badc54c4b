package network

import (
	"fmt"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
	"ultracomputer/internal/sim"
)

// Stats aggregates network activity across all copies.
type Stats struct {
	// Injected counts requests accepted from PEs.
	Injected sim.Counter
	// DeliveredToMM counts requests handed to memory modules
	// (post-combining, so DeliveredToMM <= Injected).
	DeliveredToMM sim.Counter
	// Combines counts pairwise combinations performed in switches.
	Combines sim.Counter
	// Decombines counts wait-buffer matches on the return path.
	Decombines sim.Counter
	// RepliesDelivered counts replies handed to PEs.
	RepliesDelivered sim.Counter
	// RoundTrip observes inject-to-reply latency in network cycles.
	RoundTrip sim.Mean
	// RoundTripHist is the distribution behind RoundTrip, for tail
	// quantiles (p50/p99). New initializes it; a Stats built by hand may
	// leave it nil, in which case only the mean is tracked.
	RoundTripHist *sim.Histogram

	// perStageCombines counts combinations by stage (index 0 is the PE
	// side): on a hot spot the combining tree forms across all stages.
	perStageCombines []int64
}

func (s *Stats) combineAtStage(stage int) {
	for len(s.perStageCombines) <= stage {
		s.perStageCombines = append(s.perStageCombines, 0)
	}
	s.perStageCombines[stage]++
}

// CombinesPerStage reports combinations by switch stage (stage 0 is
// nearest the PEs).
func (s *Stats) CombinesPerStage() []int64 {
	return append([]int64(nil), s.perStageCombines...)
}

// Network is the Ultracomputer interconnect: Copies identical Omega
// networks over which each PE spreads its requests round-robin (§4.1).
// The caller drives it cycle by cycle, injecting requests on the PE side,
// serving arrivals on the MM side, and collecting replies.
//
// Request IDs must be unique among in-flight requests; the PNI layer in
// internal/pe guarantees this, as do the trace generators.
type Network struct {
	cfg    Config
	copies []*copyNet
	next   []int // per-PE round-robin copy index
	// inflight tracks every in-flight request, keyed by the issuing PE
	// (request IDs are unique per PE; the PNI layer and the trace
	// generators both key IDs as pe<<32|seq). Entries are created at
	// Inject and removed when the reply is Collected, so IDs whose
	// replies materialize by decombining (and never pass through
	// MMReply) are cleaned up too.
	//
	// Determinism contract: these maps are lookup-only — no method may
	// range over them, because Go's map iteration order would leak into
	// simulation behavior. The detstate analyzer (cmd/ultravet) rejects
	// any map range on a Tick/Step/Route/Collect path.
	inflight []map[uint64]inflightReq
	dead     []bool // fail-stopped copies (no new requests)
	stats    Stats
	probe    obs.Probe
	// trace is the request-tracing stream (a reqtrace.Tracer): a second,
	// independent probe receiving only the hop events of requests whose
	// TraceCtx is non-zero. Kept separate from probe so sampled tracing
	// can run without full event recording.
	trace obs.Probe

	// prof is the guest profiler's combine sink.
	prof NetProfiler

	// collectBuf is the per-PE reply scratch reused by Collect every
	// cycle. The returned slice is only valid until that PE's next
	// Collect.
	collectBuf [][]msg.Reply
}

// inflightReq is the bookkeeping for one in-flight request.
type inflightReq struct {
	copy   int   // which network copy carries it (replies must return there)
	issued int64 // inject cycle, for round-trip latency
}

// SetProbe attaches an event probe to the network; nil detaches it (the
// default — a detached probe costs one nil check).
func (n *Network) SetProbe(p obs.Probe) { n.probe = p }

// SetTracer attaches the request-tracing stream (a reqtrace.Tracer) to
// the network; nil detaches it. Hop-record sites emit on it only for
// requests carrying a non-zero TraceCtx.
func (n *Network) SetTracer(p obs.Probe) { n.trace = p }

// NetProfiler receives combine events for the guest profiler's
// per-address contention heatmap (internal/obs/prof.Profiler satisfies
// it).
type NetProfiler interface {
	ProfCombine(addr msg.Addr)
}

// SetProfiler attaches a guest-profiler combine sink to the network;
// nil detaches it.
func (n *Network) SetProfiler(p NetProfiler) { n.prof = p }

// New builds a network from cfg. It panics on an invalid configuration
// (construction happens at setup time; see Config.Validate).
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Network{
		cfg:      cfg,
		next:     make([]int, cfg.Ports()),
		inflight: make([]map[uint64]inflightReq, cfg.Ports()),
	}
	for i := range n.inflight {
		n.inflight[i] = make(map[uint64]inflightReq)
	}
	n.stats.RoundTripHist = sim.NewHistogram(2048)
	for i := 0; i < cfg.Copies; i++ {
		n.copies = append(n.copies, newCopyNet(cfg, i))
	}
	n.dead = make([]bool, cfg.Copies)
	n.collectBuf = make([][]msg.Reply, cfg.Ports())
	return n
}

// FailCopy fail-stops network copy i: no new requests enter it, but
// traffic already inside drains normally (replies still return). This is
// the reliability benefit §4.1 attributes to using several copies of the
// network; with every copy failed, Inject refuses all traffic.
func (n *Network) FailCopy(i int) {
	if i < 0 || i >= len(n.dead) {
		panic(fmt.Sprintf("network: FailCopy(%d) of %d copies", i, len(n.dead)))
	}
	n.dead[i] = true
}

// AliveCopies reports how many copies still accept traffic.
func (n *Network) AliveCopies() int {
	alive := 0
	for _, d := range n.dead {
		if !d {
			alive++
		}
	}
	return alive
}

// Config returns the configuration the network was built with (with
// defaults applied).
func (n *Network) Config() Config { return n.cfg }

// Ports reports N, the number of PE and MM ports.
func (n *Network) Ports() int { return n.cfg.Ports() }

// Stats exposes the accumulated statistics.
func (n *Network) Stats() *Stats { return &n.stats }

// Inject offers a request at PE pe's network interface. Copies are tried
// round-robin; Inject reports false when every copy's PNI queue is full
// (the PE must retry next cycle). r.PE must equal pe: the reply path and
// the in-flight bookkeeping are both keyed by the request's PE field.
func (n *Network) Inject(pe int, r msg.Request, cycle int64) bool {
	if pe < 0 || pe >= n.Ports() {
		panic(fmt.Sprintf("network: Inject at PE %d of %d", pe, n.Ports()))
	}
	if r.PE != pe {
		panic(fmt.Sprintf("network: Inject at PE %d of request from PE %d", pe, r.PE))
	}
	for i := 0; i < len(n.copies); i++ {
		ci := (n.next[pe] + i) % len(n.copies)
		if n.dead[ci] {
			continue
		}
		c := n.copies[ci]
		if c.pniQ[pe].spaceFor(r.Packets()) {
			c.pniQ[pe].push(r)
			n.next[pe] = (ci + 1) % len(n.copies)
			n.inflight[pe][r.ID] = inflightReq{copy: ci, issued: cycle}
			n.stats.Injected.Inc()
			if n.probe != nil {
				n.probe.Emit(obs.Event{
					Cycle: cycle, Kind: obs.KindInject, PE: pe, Stage: -1,
					MM: r.Addr.MM, Copy: ci, ID: r.ID, Op: r.Op, Addr: r.Addr,
					Value: r.Operand,
				})
			}
			if n.trace != nil && r.TC.ID != 0 {
				n.trace.Emit(obs.Event{
					Cycle: cycle, Kind: obs.KindInject, PE: pe, Stage: -1,
					MM: r.Addr.MM, Copy: ci, ID: r.ID, Op: r.Op, Addr: r.Addr,
					Value: r.Operand,
				})
			}
			return true
		}
	}
	return false
}

// Step advances every copy one network cycle. Links are pumped
// upstream-first in each direction, so space freed by a downstream hop
// is usable upstream in the same cycle while the ready-at-start+1 rule
// bounds every message to one hop per cycle:
//
//	forward:  PNI links → stage 0, stage s → s+1, last stage → MNIs
//	reverse:  deferred decombine registers, MNI links → last stage,
//	          stage s → s−1, stage 0 → PE receive buffers
//
// Each of these phases runs over every copy in copy order before the
// next begins. Within a phase, links are visited destination switch by
// destination switch, each switch's feeder lines ascending (see
// feederOrder). That order fixes the sequence of events the probe and
// tracer see; queueing and combining depend only on each switch's own
// feeder order.
func (n *Network) Step(cycle int64) {
	sk := sink{stats: &n.stats, probe: n.probe, trace: n.trace, prof: n.prof}
	stages := n.cfg.Stages
	for _, c := range n.copies {
		c.forward(-1, cycle, &sk)
	}
	for s := 0; s < stages-1; s++ {
		for _, c := range n.copies {
			c.forward(s, cycle, &sk)
		}
	}
	for _, c := range n.copies {
		c.forwardLast(cycle, &sk)
	}
	for _, c := range n.copies {
		c.retryDeferred(cycle, &sk)
	}
	for _, c := range n.copies {
		c.reverseMNI(cycle, &sk)
	}
	for s := stages - 1; s >= 1; s-- {
		for _, c := range n.copies {
			c.reverse(s, cycle, &sk)
		}
	}
	for _, c := range n.copies {
		c.reversePE(cycle, &sk)
	}
}

// MMDequeue removes the next fully assembled request waiting at memory
// module mm, searching copies round-robin from the module's perspective.
func (n *Network) MMDequeue(mm int) (msg.Request, bool) {
	for _, c := range n.copies {
		if r, ok := c.mmIn[mm].pop(); ok {
			n.stats.DeliveredToMM.Inc()
			return r, true
		}
	}
	return msg.Request{}, false
}

// MMPending reports how many requests are waiting at memory module mm.
func (n *Network) MMPending(mm int) int {
	total := 0
	for _, c := range n.copies {
		total += c.mmIn[mm].len()
	}
	return total
}

// MMReply enqueues a reply at memory module mm's network interface. The
// reply returns through the copy that carried its request. It reports
// false when that copy's MNI queue is full (the MM must retry).
func (n *Network) MMReply(mm int, rep msg.Reply) bool {
	fl, ok := n.inflight[rep.PE][rep.ID]
	if !ok {
		panic(fmt.Sprintf("network: MMReply for unknown request ID %d (PE %d)", rep.ID, rep.PE))
	}
	c := n.copies[fl.copy]
	if !c.mmOut[mm].spaceFor(rep.Packets()) {
		return false
	}
	c.mmOut[mm].push(rep)
	return true
}

// Collect drains the replies fully received at PE pe, recording
// round-trip latencies. The returned slice aliases per-PE scratch and
// is only valid until pe's next Collect.
func (n *Network) Collect(pe int, cycle int64) []msg.Reply {
	out := n.collectBuf[pe][:0]
	for _, c := range n.copies {
		if len(c.peRecv[pe]) > 0 {
			//ultravet:ok hotalloc per-PE scratch reaches steady-state capacity after warmup
			out = append(out, c.peRecv[pe]...)
			c.peRecv[pe] = c.peRecv[pe][:0]
		}
	}
	n.collectBuf[pe] = out[:0]
	s := &n.stats
	for _, rep := range out {
		// A reply with no in-flight record (hand-injected in tests)
		// counts as delivered but has no round-trip latency.
		if fl, ok := n.inflight[rep.PE][rep.ID]; ok {
			delete(n.inflight[rep.PE], rep.ID)
			s.RoundTrip.Observe(float64(cycle - fl.issued))
			if s.RoundTripHist != nil {
				s.RoundTripHist.Observe(cycle - fl.issued)
			}
		}
		s.RepliesDelivered.Inc()
		if n.probe != nil {
			n.probe.Emit(obs.Event{
				Cycle: cycle, Kind: obs.KindReplyDeliver, PE: pe, Stage: -1,
				MM: -1, Copy: -1, ID: rep.ID, Op: rep.Op, Addr: rep.Addr,
				Value: rep.Value,
			})
		}
		if n.trace != nil && rep.TC.ID != 0 {
			// Span completion: the tracer closes the span and files it
			// in the flight recorder.
			n.trace.Emit(obs.Event{
				Cycle: cycle, Kind: obs.KindReplyDeliver, PE: pe, Stage: -1,
				MM: -1, Copy: -1, ID: rep.ID, Op: rep.Op, Addr: rep.Addr,
				Value: rep.Value,
			})
		}
	}
	return out
}

// SampleQueues records the current occupancy (in packets) of every
// forward switch queue into h — call periodically to build the
// queue-length distribution behind the §4.1 delay analysis.
func (n *Network) SampleQueues(h *sim.Histogram) {
	for _, c := range n.copies {
		for s := range c.fq {
			for _, q := range c.fq[s] {
				h.Observe(int64(q.occupancy()))
			}
		}
	}
}

// Snapshot captures the network side of one obs.Snapshot at cycle:
// per-stage ToMM and ToPE queue occupancy (summed over copies, stage 0
// nearest the PEs) and the cumulative traffic counters. Memory-side
// fields are filled by the bank (memory.Bank.Observe).
func (n *Network) Snapshot(cycle int64) obs.Snapshot {
	stages := n.cfg.Stages
	sn := obs.Snapshot{
		Cycle:             cycle,
		StageQueuePackets: make([]int64, stages),
		StageQueueOcc:     make([]float64, stages),
		StageQueueMax:     make([]int64, stages),
		StageReplyOcc:     make([]float64, stages),
	}
	replyPackets := make([]int64, stages)
	var mmWaiting int
	for _, c := range n.copies {
		for s := 0; s < stages; s++ {
			for _, q := range c.fq[s] {
				occ := int64(q.occupancy())
				sn.StageQueuePackets[s] += occ
				if occ > sn.StageQueueMax[s] {
					sn.StageQueueMax[s] = occ
				}
			}
			for _, q := range c.rq[s] {
				replyPackets[s] += int64(q.occupancy())
			}
			for _, w := range c.wb[s] {
				sn.WaitBufRecords += int64(w.len())
			}
		}
		for _, q := range c.mmIn {
			mmWaiting += q.len()
		}
	}
	if buffers := float64(len(n.copies) * stages * n.Ports()); buffers > 0 {
		sn.WaitBufOcc = float64(sn.WaitBufRecords) / buffers
	}
	sn.MMPending = float64(mmWaiting) / float64(n.Ports())
	queuesPerStage := float64(len(n.copies) * n.Ports())
	for s := 0; s < stages; s++ {
		sn.StageQueueOcc[s] = float64(sn.StageQueuePackets[s]) / queuesPerStage
		sn.StageReplyOcc[s] = float64(replyPackets[s]) / queuesPerStage
	}
	sn.Injected = n.stats.Injected.Value()
	sn.Combines = n.stats.Combines.Value()
	sn.RTCount = n.stats.RoundTrip.N()
	sn.RTSum = n.stats.RoundTrip.Value() * float64(n.stats.RoundTrip.N())
	if h := n.stats.RoundTripHist; h != nil && h.N() > 0 {
		sn.RTP50 = float64(h.Quantile(0.50))
		sn.RTP99 = float64(h.Quantile(0.99))
	}
	return sn
}

// InFlight counts messages resident anywhere in the network, including
// replies delivered to PE buffers but not yet collected. Zero means the
// network has fully drained.
func (n *Network) InFlight() int {
	total := 0
	for _, c := range n.copies {
		total += c.inFlightLocal()
		for pe := range c.peRecv {
			total += len(c.peRecv[pe])
		}
	}
	return total
}
