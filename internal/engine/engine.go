// Package engine is the seam through which a machine cycle runs its
// per-unit phases. A cycle of the simulated machine decomposes into
// phases, each a loop over units (memory modules, then PEs); an Engine
// runs one such phase. Serial, the engine every machine uses unless
// told otherwise, runs the loop inline. Callers plug in their own
// Engine to observe phases, for example to time each one, without
// touching the machine.
//
// Determinism contract: the simulator is single-threaded. An engine
// must run every unit of a phase exactly once, in ascending unit order,
// on the calling goroutine, and return only when the phase is done.
// Same-seed runs are then byte-identical under every engine.
package engine

// Engine executes the units of one simulation phase.
//
// Run calls fn over contiguous index ranges that together cover [0, n)
// in ascending order and returns after the last of them. fn receives
// the range [lo, hi) and a worker index, which is always 0.
type Engine interface {
	Run(n int, fn func(lo, hi, worker int))
}

// Serial executes every phase inline in one call. It is the reference
// engine.
type Serial struct{}

// Run calls fn(0, n, 0) when n > 0.
func (Serial) Run(n int, fn func(lo, hi, worker int)) {
	if n > 0 {
		fn(0, n, 0)
	}
}

// Close does nothing: Serial holds no resources. It remains for callers
// that release the engine after a run.
func (Serial) Close() {}
