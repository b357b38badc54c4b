package network

import (
	"ultracomputer/internal/engine"
	"ultracomputer/internal/msg"
)

// Stepper drives a Network cycle by cycle through the calls a cycle
// loop makes: Inject on the PE side, Step, MMDequeue on the memory
// side, then Collect. Every call goes straight to the Network; the
// type remains so that drivers written against it (the perfbench
// replica of trace.Run among them) keep compiling.
type Stepper struct {
	n *Network
}

// NewStepper returns a stepper for n. The network steps serially on
// the calling goroutine, so the engine argument is ignored; it remains
// for source compatibility and may be nil.
func NewStepper(n *Network, _ engine.Engine) *Stepper { return &Stepper{n: n} }

// Step is Network.Step.
func (st *Stepper) Step(cycle int64) { st.n.Step(cycle) }

// Inject is Network.Inject.
func (st *Stepper) Inject(pe int, r msg.Request, cycle int64) bool {
	return st.n.Inject(pe, r, cycle)
}

// Collect is Network.Collect.
func (st *Stepper) Collect(pe int, cycle int64) []msg.Reply { return st.n.Collect(pe, cycle) }

// MMDequeue is Network.MMDequeue.
func (st *Stepper) MMDequeue(mm int) (msg.Request, bool) { return st.n.MMDequeue(mm) }

// FlushInject, FlushMM and FlushCollect do nothing: Inject, MMDequeue
// and Collect record their statistics and events as they run. They
// remain so that cycle loops that call them between phases compile.
func (st *Stepper) FlushInject()  {}
func (st *Stepper) FlushMM()      {}
func (st *Stepper) FlushCollect() {}
