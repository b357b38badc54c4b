package pe

import (
	"ultracomputer/internal/memory"
	"ultracomputer/internal/msg"
)

// PNI is the processor-network interface (§3.4). Of its four functions —
// address translation, message assembly/disassembly, pipeline policy
// enforcement, and cache management — this type implements the first
// three; cache management lives with the core that owns the cache.
//
// Pipeline policy: a PE may have several outstanding requests (register
// locking lets it run ahead), but never more than one outstanding
// reference to the same memory location — the wait-buffer design requires
// each in-flight (PE, location) pair to be unique so a returning request
// matches at most one record (§3.3).
type PNI struct {
	pe             int
	hash           memory.Hasher
	inject         func(msg.Request) bool
	maxOutstanding int

	seq     uint32
	pending map[uint64]pendingReq
	byAddr  map[int64]bool

	// tracer, when non-nil, decides per request ID whether the request
	// carries a causal-tracing context (internal/obs/reqtrace).
	tracer TraceSampler
}

// TraceSampler stamps sampled requests with a trace context at issue.
// The decision must be a pure function of the request ID so same-seed
// runs sample identically (internal/obs/reqtrace.Tracer).
type TraceSampler interface {
	ContextFor(id uint64) msg.TraceCtx
}

type pendingReq struct {
	tag      int
	addr     int64
	issuedAt int64
	pc       int // guest pc of the issuing instruction (profiler use)
}

func newPNI(pe int, h memory.Hasher, inject func(msg.Request) bool, maxOutstanding int) *PNI {
	if maxOutstanding < 1 {
		maxOutstanding = 1
	}
	return &PNI{
		pe:             pe,
		hash:           h,
		inject:         inject,
		maxOutstanding: maxOutstanding,
		pending:        make(map[uint64]pendingReq),
		byAddr:         make(map[int64]bool),
	}
}

// Outstanding reports the number of in-flight shared requests.
func (p *PNI) Outstanding() int { return len(p.pending) }

// canIssue applies the pipelining restrictions for a new request to addr.
func (p *PNI) canIssue(addr int64) bool {
	return len(p.pending) < p.maxOutstanding && !p.byAddr[addr]
}

// issue translates, tags and injects one request. It reports false when
// the pipelining rules refuse it or the network has no space.
func (p *PNI) issue(op msg.Op, addr int64, operand int64, tag int, cycle int64, pc int) bool {
	if !p.canIssue(addr) {
		return false
	}
	p.seq++
	id := uint64(p.pe)<<32 | uint64(p.seq)
	req := msg.Request{
		ID:      id,
		PE:      p.pe,
		Op:      op,
		Addr:    p.hash.Map(addr),
		Operand: operand,
		Issued:  cycle,
	}
	if p.tracer != nil {
		req.TC = p.tracer.ContextFor(id)
	}
	if !p.inject(req) {
		p.seq-- // ID not consumed
		return false
	}
	p.pending[id] = pendingReq{tag: tag, addr: addr, issuedAt: cycle, pc: pc}
	p.byAddr[addr] = true
	return true
}

// complete matches a reply to its outstanding request, returning the
// pending record (tag, linear address, issue cycle, issuing pc).
func (p *PNI) complete(rep msg.Reply) (pendingReq, bool) {
	pr, found := p.pending[rep.ID]
	if !found {
		return pendingReq{}, false
	}
	delete(p.pending, rep.ID)
	delete(p.byAddr, pr.addr)
	return pr, true
}
