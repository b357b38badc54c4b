package obs

import "sync"

// Recorder is a fixed-capacity ring-buffer Probe: once full, each new
// event overwrites the oldest, so tracing an arbitrarily long run keeps
// the most recent window. The buffer is allocated up front and Emit
// never allocates.
//
// Recorder is safe for concurrent use: the live-telemetry server tails
// the ring from HTTP handler goroutines while the simulation emits. A
// plain mutex keeps every
// accessor coherent; it is uncontended on the hot path (the simulation
// is the only writer).
type Recorder struct {
	mu          sync.Mutex
	buf         []Event // guarded by mu
	start, n    int     // guarded by mu
	total       int64   // guarded by mu
	overwritten int64   // guarded by mu
}

// DefaultRecorderCapacity holds roughly the last million events — a few
// thousand request lifecycles on a mid-sized machine.
const DefaultRecorderCapacity = 1 << 20

// NewRecorder returns a recorder holding up to capacity events
// (capacity < 1 selects DefaultRecorderCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// Emit implements Probe.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.start] = ev
	r.start = (r.start + 1) % len(r.buf)
	r.overwritten++
}

// Len reports the number of events currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Total reports the number of events ever emitted.
func (r *Recorder) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Overwritten reports how many events the ring has discarded; nonzero
// means Events covers only the tail of the run.
func (r *Recorder) Overwritten() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.overwritten
}

// Events returns the held events oldest-first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Tail returns up to n of the most recently emitted events, oldest
// first. It copies, so the result stays valid (and safe to hand to
// another goroutine) as the ring advances.
func (r *Recorder) Tail(n int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.n {
		n = r.n
	}
	if n <= 0 {
		return nil
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = r.buf[(r.start+r.n-n+i)%len(r.buf)]
	}
	return out
}

// Reset discards all held events (capacity is kept).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.start, r.n = 0, 0
	r.total, r.overwritten = 0, 0
}
