package network

import (
	"sort"

	"ultracomputer/internal/msg"
	"ultracomputer/internal/obs"
)

// reqServer transmits one request across a link. A message of P packets
// occupies the link for P cycles; its header is deliverable to the next
// stage one cycle after service starts (cut-through), so an unloaded
// network adds one cycle of delay per stage plus the pipe-setting time
// (§4.1's "+ m − 1" term). Delivery into a memory module waits for the
// full message (the MNI assembles requests, §3.4).
type reqServer struct {
	active    bool
	delivered bool
	start     int64
	req       msg.Request
}

// repServer is the reply-path equivalent of reqServer.
type repServer struct {
	active    bool
	delivered bool
	start     int64
	rep       msg.Reply
}

// copyNet is one copy of the Omega network: D stages of N/k switches,
// each switch holding k ToMM queues with wait buffers (forward component)
// and k ToPE queues (reverse component), plus the PNI and MNI link
// queues.
type copyNet struct {
	topo topology
	cfg  Config

	// Forward (PE → MM) path.
	pniQ   []*reqQueue   // [pe] PNI output queue
	pniSrv []reqServer   // [pe] PNI-to-stage-0 link
	fq     [][]*reqQueue // [stage][switch*k+port] ToMM queues
	fsrv   [][]reqServer // [stage][switch*k+port]
	wb     [][]*waitBuffer
	mmIn   []*reqQueue // [mm] fully assembled requests awaiting the MM

	// Reverse (MM → PE) path.
	mmOut  []*repQueue   // [mm] MNI output queue
	mmSrv  []repServer   // [mm] MNI-to-last-stage link
	rq     [][]*repQueue // [stage][switch*k+port] ToPE queues
	rsrv   [][]repServer
	peRecv [][]msg.Reply // [pe] fully assembled replies for the PE

	// revDefer holds, per switch, the second reply synthesized by a
	// decombination when its ToPE queue lacked space that cycle (a
	// one-entry register in the hardware). While occupied, the switch
	// refuses further incoming replies so the register cannot be
	// overrun; it drains as the ToPE queues empty toward the PEs.
	revDefer [][]deferredReply

	// fwdOrder and revOrder are the order the links between two stages
	// are pumped: destination switch by destination switch, and within
	// a switch its feeder lines ascending. fwdOrder serves every
	// forward transition (the same perfect shuffle sits between all
	// stages); revOrder every reverse one.
	fwdOrder []int
	revOrder []int

	copyIdx int
}

func newCopyNet(cfg Config, idx int) *copyNet {
	t := newTopology(cfg.K, cfg.Stages)
	c := &copyNet{topo: t, cfg: cfg, copyIdx: idx}
	c.fwdOrder = feederOrder(t, t.unshuffle)
	c.revOrder = feederOrder(t, t.shuffle)
	n := t.n
	c.pniQ = make([]*reqQueue, n)
	c.pniSrv = make([]reqServer, n)
	c.mmIn = make([]*reqQueue, n)
	c.mmOut = make([]*repQueue, n)
	c.mmSrv = make([]repServer, n)
	c.peRecv = make([][]msg.Reply, n)
	for i := 0; i < n; i++ {
		c.pniQ[i] = newReqQueue(cfg.PNIQueueCapacity)
		c.mmIn[i] = newReqQueue(cfg.QueueCapacity)
		c.mmOut[i] = newRepQueue(cfg.QueueCapacity)
	}
	c.fq = make([][]*reqQueue, t.stages)
	c.fsrv = make([][]reqServer, t.stages)
	c.wb = make([][]*waitBuffer, t.stages)
	c.rq = make([][]*repQueue, t.stages)
	c.rsrv = make([][]repServer, t.stages)
	c.revDefer = make([][]deferredReply, t.stages)
	for s := 0; s < t.stages; s++ {
		c.revDefer[s] = make([]deferredReply, t.group)
		c.fq[s] = make([]*reqQueue, n)
		c.fsrv[s] = make([]reqServer, n)
		c.wb[s] = make([]*waitBuffer, n)
		c.rq[s] = make([]*repQueue, n)
		c.rsrv[s] = make([]repServer, n)
		for l := 0; l < n; l++ {
			c.fq[s][l] = newReqQueue(cfg.QueueCapacity)
			c.wb[s][l] = newWaitBuffer(cfg.WaitBufferCapacity)
			c.rq[s][l] = newRepQueue(cfg.QueueCapacity)
		}
	}
	return c
}

// line converts (switch, port) to a line number within a stage.
func (c *copyNet) line(sw, port int) int { return sw*c.topo.k + port }

// sink directs the step's observability output: the shared Stats, the
// event probe, the request-tracing stream and the guest profiler's
// combine sink. The trace stream is separate from the probe so hop
// recording for sampled requests can run without paying for full event
// recording: a site emits on it only when the carrier's TraceCtx is
// non-zero, so with tracing attached but a request unsampled the cost
// is one nil check plus one integer compare.
type sink struct {
	stats *Stats
	probe obs.Probe
	trace obs.Probe
	prof  NetProfiler
}

// feederOrder lists every line of a stage transition grouped by the
// switch it feeds: line l feeds switch perm(l)/k, so the feeders of sw
// are inv(sw·k+j) for each port j, sorted ascending. Visiting a
// destination switch's feeders in ascending line order fixes the
// per-switch operation sequence, and with it combining and queueing.
func feederOrder(t topology, inv func(int) int) []int {
	order := make([]int, 0, t.n)
	for sw := 0; sw < t.group; sw++ {
		for j := 0; j < t.k; j++ {
			order = append(order, inv(sw*t.k+j))
		}
		sort.Ints(order[sw*t.k:])
	}
	return order
}

// enqueueForward routes a request into the ToMM queue of stage s selected
// by the destination digit, attempting combination first (§3.3). It
// reports false when the request cannot be accepted this cycle.
func (c *copyNet) enqueueForward(s, sw int, r msg.Request, cycle int64, sk *sink) bool {
	port := c.topo.digit(r.Addr.MM, s)
	idx := c.line(sw, port)
	q := c.fq[s][idx]
	if c.cfg.Combining {
		if i := q.findCombinable(r); i >= 0 {
			w := c.wb[s][idx]
			if w.hasSpace() {
				old := q.entries[i].req
				fop, farg, aPlan, bPlan, ok := msg.Combine(old.Op, old.Operand, r.Op, r.Operand)
				if ok && q.updateCombined(i, fop, farg) {
					aTC, bTC := old.TC, r.TC
					if sk.trace != nil && (aTC.ID != 0 || bTC.ID != 0) {
						// Record genealogy completely: a combine
						// touching any traced request adopts the
						// untraced partner mid-flight, so the tree a
						// sampled request joins is whole. The queued
						// survivor's context is stamped onto its
						// entry so the combined request's onward hops
						// are recorded too.
						if aTC.ID == 0 {
							aTC = msg.TraceCtx{ID: old.ID, Hops: r.TC.Hops}
						}
						if bTC.ID == 0 {
							bTC = msg.TraceCtx{ID: r.ID, Hops: old.TC.Hops}
						}
						q.setTC(i, aTC)
						sk.trace.Emit(obs.Event{
							Cycle: cycle, Kind: obs.KindCombine, PE: r.PE,
							Stage: s, MM: -1, Copy: c.copyIdx,
							ID: r.ID, ID2: old.ID, Op: r.Op, Addr: r.Addr,
							Value: int64(old.PE),
						})
					}
					w.add(waitRec{
						key:  old.ID,
						addr: old.Addr,
						a:    side{id: old.ID, pe: old.PE, op: old.Op, plan: aPlan, tc: aTC},
						b:    side{id: r.ID, pe: r.PE, op: r.Op, plan: bPlan, tc: bTC},
					})
					sk.stats.Combines.Inc()
					sk.stats.combineAtStage(s)
					if sk.prof != nil {
						sk.prof.ProfCombine(r.Addr)
					}
					if sk.probe != nil {
						sk.probe.Emit(obs.Event{
							Cycle: cycle, Kind: obs.KindCombine, PE: r.PE,
							Stage: s, MM: -1, Copy: c.copyIdx,
							ID: r.ID, ID2: old.ID, Op: r.Op, Addr: r.Addr,
						})
					}
					return true
				}
			}
		}
	}
	if !q.spaceFor(r.Packets()) {
		return false
	}
	if r.TC.ID != 0 {
		r.TC.Hops++
	}
	q.push(r)
	if sk.probe != nil {
		sk.probe.Emit(obs.Event{
			Cycle: cycle, Kind: obs.KindStageArrive, PE: r.PE,
			Stage: s, MM: -1, Copy: c.copyIdx,
			ID: r.ID, Op: r.Op, Addr: r.Addr,
		})
	}
	if sk.trace != nil && r.TC.ID != 0 {
		sk.trace.Emit(obs.Event{
			Cycle: cycle, Kind: obs.KindStageArrive, PE: r.PE,
			Stage: s, MM: -1, Copy: c.copyIdx,
			ID: r.ID, Op: r.Op, Addr: r.Addr, Value: int64(q.occupancy()),
		})
	}
	return true
}

// deferredReply is a one-entry holding register for the second reply of a
// decombination whose ToPE queue was momentarily full.
type deferredReply struct {
	rep   msg.Reply
	port  int
	valid bool
}

// acceptReply receives a reply arriving at stage s on MM-side port inPort
// of switch sw. If the reply's identity matches a wait-buffer record, the
// record is consumed and both original replies are synthesized and routed
// (decombination, §3.3); otherwise the reply is routed alone. It reports
// false when the required ToPE queue space is unavailable this cycle.
func (c *copyNet) acceptReply(s, sw, inPort int, rep msg.Reply, cycle int64, sk *sink) bool {
	if c.revDefer[s][sw].valid {
		// The switch still holds an undelivered second reply; block
		// incoming replies until it drains.
		return false
	}
	w := c.wb[s][c.line(sw, inPort)]
	if rec, found := w.peek(rep.ID); found {
		ra := synthReply(rec.a, rec.addr, rep.Value)
		rb := synthReply(rec.b, rec.addr, rep.Value)
		pa := c.topo.digit(ra.PE, s)
		pb := c.topo.digit(rb.PE, s)
		qa := c.rq[s][c.line(sw, pa)]
		qb := c.rq[s][c.line(sw, pb)]
		if !qa.spaceFor(ra.Packets()) {
			return false
		}
		w.take(rep.ID)
		qa.push(ra)
		if sk.probe != nil {
			sk.probe.Emit(obs.Event{
				Cycle: cycle, Kind: obs.KindDecombine, PE: -1,
				Stage: s, MM: -1, Copy: c.copyIdx,
				ID: rep.ID, ID2: rb.ID, Addr: rec.addr, Value: rep.Value,
			})
			c.emitReplyHop(s, ra, cycle, sk.probe)
		}
		if sk.trace != nil && (ra.TC.ID != 0 || rb.TC.ID != 0) {
			sk.trace.Emit(obs.Event{
				Cycle: cycle, Kind: obs.KindDecombine, PE: -1,
				Stage: s, MM: -1, Copy: c.copyIdx,
				ID: rep.ID, ID2: rb.ID, Addr: rec.addr, Value: rep.Value,
			})
		}
		if sk.trace != nil && ra.TC.ID != 0 {
			c.emitReplyHop(s, ra, cycle, sk.trace)
		}
		// If qa == qb, qb's occupancy already includes ra.
		if qb.spaceFor(rb.Packets()) {
			qb.push(rb)
			if sk.probe != nil {
				c.emitReplyHop(s, rb, cycle, sk.probe)
			}
			if sk.trace != nil && rb.TC.ID != 0 {
				c.emitReplyHop(s, rb, cycle, sk.trace)
			}
		} else {
			c.revDefer[s][sw] = deferredReply{rep: rb, port: pb, valid: true}
		}
		sk.stats.Decombines.Inc()
		return true
	}
	q := c.rq[s][c.line(sw, c.topo.digit(rep.PE, s))]
	if !q.spaceFor(rep.Packets()) {
		return false
	}
	q.push(rep)
	if sk.probe != nil {
		c.emitReplyHop(s, rep, cycle, sk.probe)
	}
	if sk.trace != nil && rep.TC.ID != 0 {
		c.emitReplyHop(s, rep, cycle, sk.trace)
	}
	return true
}

// emitReplyHop records a reply entering a stage's ToPE queue.
func (c *copyNet) emitReplyHop(s int, rep msg.Reply, cycle int64, pr obs.Probe) {
	if pr == nil {
		return
	}
	pr.Emit(obs.Event{
		Cycle: cycle, Kind: obs.KindReplyHop, PE: rep.PE,
		Stage: s, MM: -1, Copy: c.copyIdx,
		ID: rep.ID, Op: rep.Op, Addr: rep.Addr, Value: rep.Value,
	})
}

// retryDeferred retries each switch's held second reply into its ToPE
// queue, switch column by switch column and, within a column, stage by
// stage. Each register touches only its own switch's queues, so the
// visiting order matters only to the order events are emitted in.
func (c *copyNet) retryDeferred(cycle int64, sk *sink) {
	for sw := 0; sw < c.topo.group; sw++ {
		for s := 0; s < c.topo.stages; s++ {
			d := &c.revDefer[s][sw]
			if !d.valid {
				continue
			}
			q := c.rq[s][c.line(sw, d.port)]
			if !q.spaceFor(d.rep.Packets()) {
				continue
			}
			q.push(d.rep)
			d.valid = false
			if sk.probe != nil {
				c.emitReplyHop(s, d.rep, cycle, sk.probe)
			}
			if sk.trace != nil && d.rep.TC.ID != 0 {
				c.emitReplyHop(s, d.rep, cycle, sk.trace)
			}
		}
	}
}

// synthReply builds the reply owed to one side of a combined pair from
// the combined reply's value (Figure 3), carrying the side's own trace
// context back toward its PE.
func synthReply(sd side, addr msg.Addr, y int64) msg.Reply {
	return msg.Reply{ID: sd.id, PE: sd.pe, Op: sd.op, Addr: addr, Value: sd.plan.Synthesize(y), TC: sd.tc}
}

// forward pumps the links leaving stage s (s == -1: the PNI links)
// into stage s+1, in fwdOrder.
func (c *copyNet) forward(s int, cycle int64, sk *sink) {
	srv := c.pniSrv
	if s >= 0 {
		srv = c.fsrv[s]
	}
	for _, l := range c.fwdOrder {
		c.pumpRequest(&srv[l], cycle, s, l, sk)
	}
}

// forwardLast pumps the last stage into the MNIs. Output line l is MM
// l, so a switch owns its lines outright and line order is switch
// order.
func (c *copyNet) forwardLast(cycle int64, sk *sink) {
	last := c.topo.stages - 1
	for l := range c.fsrv[last] {
		c.pumpRequest(&c.fsrv[last][l], cycle, last, l, sk)
	}
}

// pumpRequest advances one forward link server. s == -1 denotes a PNI
// link (l is the PE number); otherwise l = switch*k + port at stage s.
func (c *copyNet) pumpRequest(srv *reqServer, cycle int64, s, l int, sk *sink) {
	t := c.topo
	if srv.active && !srv.delivered {
		pk := int64(srv.req.Packets())
		lastStage := s == t.stages-1
		ready := cycle >= srv.start+1
		if lastStage {
			// The MNI assembles the full message before the MM
			// sees it.
			ready = cycle >= srv.start+pk
		}
		if ready {
			var ok bool
			if lastStage {
				mm := l // output line of the last stage is the MM number
				if c.mmIn[mm].spaceFor(srv.req.Packets()) {
					c.mmIn[mm].push(srv.req)
					ok = true
					if sk.probe != nil {
						sk.probe.Emit(obs.Event{
							Cycle: cycle, Kind: obs.KindMMArrive, PE: srv.req.PE,
							Stage: -1, MM: mm, Copy: c.copyIdx,
							ID: srv.req.ID, Op: srv.req.Op, Addr: srv.req.Addr,
						})
					}
					if sk.trace != nil && srv.req.TC.ID != 0 {
						sk.trace.Emit(obs.Event{
							Cycle: cycle, Kind: obs.KindMMArrive, PE: srv.req.PE,
							Stage: -1, MM: mm, Copy: c.copyIdx,
							ID: srv.req.ID, Op: srv.req.Op, Addr: srv.req.Addr,
						})
					}
				}
			} else {
				// The perfect shuffle wires output line l (or PE
				// l when s == -1) to the next stage.
				nextSw := t.shuffle(l) / t.k
				ok = c.enqueueForward(s+1, nextSw, srv.req, cycle, sk)
			}
			if ok {
				srv.delivered = true
			}
		}
	}
	if srv.active && srv.delivered && cycle >= srv.start+int64(srv.req.Packets()) {
		srv.active = false
	}
	if !srv.active {
		var q *reqQueue
		if s < 0 {
			q = c.pniQ[l]
		} else {
			q = c.fq[s][l]
		}
		if r, ok := q.pop(); ok {
			srv.active = true
			srv.delivered = false
			srv.start = cycle
			srv.req = r
			if sk.trace != nil && r.TC.ID != 0 {
				// Queue departure into the link server: together with
				// the matching StageArrive this brackets the hop's
				// queueing delay (Stage -1 is the PNI queue).
				sk.trace.Emit(obs.Event{
					Cycle: cycle, Kind: obs.KindStageDepart, PE: r.PE,
					Stage: s, MM: -1, Copy: c.copyIdx,
					ID: r.ID, Op: r.Op, Addr: r.Addr,
				})
			}
		}
	}
}

// reverseMNI pumps the MNI links into the last stage (MM m is wired to
// switch m/k, so MM order is switch order).
func (c *copyNet) reverseMNI(cycle int64, sk *sink) {
	for mm := range c.mmSrv {
		c.pumpReply(&c.mmSrv[mm], cycle, c.topo.stages, mm, sk)
	}
}

// reverse pumps the links leaving stage s (s >= 1) into stage s−1, in
// revOrder.
func (c *copyNet) reverse(s int, cycle int64, sk *sink) {
	for _, l := range c.revOrder {
		c.pumpReply(&c.rsrv[s][l], cycle, s, l, sk)
	}
}

// reversePE pumps stage 0 into the PE receive buffers: unshuffle is a
// permutation, so the k lines of a switch deliver to k distinct PEs and
// line order is switch order.
func (c *copyNet) reversePE(cycle int64, sk *sink) {
	for l := range c.rsrv[0] {
		c.pumpReply(&c.rsrv[0][l], cycle, 0, l, sk)
	}
}

// pumpReply advances one reverse link server. s == stages denotes an MNI
// link (l is the MM number); otherwise l = switch*k + PE-side port at
// stage s.
func (c *copyNet) pumpReply(srv *repServer, cycle int64, s, l int, sk *sink) {
	t := c.topo
	if srv.active && !srv.delivered {
		pk := int64(srv.rep.Packets())
		toPE := s == 0
		ready := cycle >= srv.start+1
		if toPE {
			// The PNI assembles the full reply before the PE sees it.
			ready = cycle >= srv.start+pk
		}
		if ready {
			var ok bool
			switch {
			case toPE:
				pe := t.unshuffle(l)
				c.peRecv[pe] = append(c.peRecv[pe], srv.rep)
				ok = true
			case s == t.stages:
				// MNI into the last stage: MM m is wired to
				// switch m/k, MM-side port m%k.
				ok = c.acceptReply(t.stages-1, l/t.k, l%t.k, srv.rep, cycle, sk)
			default:
				prev := t.unshuffle(l)
				ok = c.acceptReply(s-1, prev/t.k, prev%t.k, srv.rep, cycle, sk)
			}
			if ok {
				srv.delivered = true
			}
		}
	}
	if srv.active && srv.delivered && cycle >= srv.start+int64(srv.rep.Packets()) {
		srv.active = false
	}
	if !srv.active {
		var q *repQueue
		if s == t.stages {
			q = c.mmOut[l]
		} else {
			q = c.rq[s][l]
		}
		if r, ok := q.pop(); ok {
			srv.active = true
			srv.delivered = false
			srv.start = cycle
			srv.rep = r
			if sk.trace != nil && r.TC.ID != 0 {
				stage, mm := s, -1
				if s == t.stages {
					// MNI output queue: l is the MM number.
					stage, mm = -1, l
				}
				sk.trace.Emit(obs.Event{
					Cycle: cycle, Kind: obs.KindReplyDepart, PE: r.PE,
					Stage: stage, MM: mm, Copy: c.copyIdx,
					ID: r.ID, Op: r.Op, Addr: r.Addr,
				})
			}
		}
	}
}

// inFlightLocal counts messages resident in this copy's queues and
// servers (excluding the peRecv buffers, which the caller drains).
func (c *copyNet) inFlightLocal() int {
	t := c.topo
	n := 0
	for pe := 0; pe < t.n; pe++ {
		n += c.pniQ[pe].len()
		if c.pniSrv[pe].active {
			n++
		}
		n += c.mmIn[pe].len()
		n += c.mmOut[pe].len()
		if c.mmSrv[pe].active {
			n++
		}
	}
	for s := 0; s < t.stages; s++ {
		for l := 0; l < t.n; l++ {
			n += c.fq[s][l].len()
			if c.fsrv[s][l].active {
				n++
			}
			n += c.rq[s][l].len()
			if c.rsrv[s][l].active {
				n++
			}
			// Each wait record stands for one absorbed request
			// whose reply is still owed (its partner is counted
			// on the path).
			n += c.wb[s][l].len()
		}
		for sw := range c.revDefer[s] {
			if c.revDefer[s][sw].valid {
				n++
			}
		}
	}
	return n
}
