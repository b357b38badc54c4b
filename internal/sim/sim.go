// Package sim provides the cycle-driven simulation kernel used by every
// hardware model in this repository: a two-phase clock, deterministic
// pseudo-random number generation, and statistics accumulators.
//
// The Ultracomputer paper evaluates its design by simulation (the NETSIM
// and WASHCLOTH simulators of Snir and Gottlieb); this package plays the
// same role. All simulations are deterministic given a seed so that every
// table and figure in EXPERIMENTS.md is exactly reproducible.
package sim

import "fmt"

// Ticker is implemented by every simulated hardware component.
//
// Simulation proceeds in two phases per cycle so that all components
// observe the state of the previous cycle regardless of iteration order:
// first every component's Compute is called, then every Commit. Compute
// must only read shared state and stage its own changes; Commit publishes
// them.
type Ticker interface {
	// Compute reads the visible state of the machine and stages this
	// component's updates for the current cycle.
	Compute(cycle int64)
	// Commit publishes the staged updates, making them visible to all
	// components in the next cycle.
	Commit(cycle int64)
}

// Clock drives a set of Tickers through two-phase cycles.
type Clock struct {
	now     int64
	tickers []Ticker
}

// NewClock returns a clock at cycle zero with no registered components.
func NewClock() *Clock { return &Clock{} }

// Now reports the current cycle number (the number of completed cycles).
func (c *Clock) Now() int64 { return c.now }

// Register adds components to the clock. Components are ticked in
// registration order, but two-phase execution makes results independent
// of that order.
func (c *Clock) Register(ts ...Ticker) { c.tickers = append(c.tickers, ts...) }

// Step advances the simulation by one cycle: every component's Compute,
// then every Commit.
func (c *Clock) Step() {
	for _, t := range c.tickers {
		t.Compute(c.now)
	}
	for _, t := range c.tickers {
		t.Commit(c.now)
	}
	c.now++
}

// Run advances the simulation by n cycles.
func (c *Clock) Run(n int64) {
	for i := int64(0); i < n; i++ {
		c.Step()
	}
}

// RunUntil steps the clock until done reports true or the cycle limit is
// reached, returning the number of cycles executed and whether done was
// reached.
func (c *Clock) RunUntil(done func() bool, limit int64) (int64, bool) {
	start := c.now
	for !done() {
		if c.now-start >= limit {
			return c.now - start, false
		}
		c.Step()
	}
	return c.now - start, true
}

// String describes the clock for debugging.
func (c *Clock) String() string {
	return fmt.Sprintf("clock{cycle=%d components=%d}", c.now, len(c.tickers))
}
