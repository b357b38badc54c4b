// Fixture for the stagecheck analyzer: goroutine launches on phase
// paths and Compute methods writing past their receiver.
package stagecheck

// totalOps is cross-unit shared state: no Compute may write it.
var totalOps int64

type counters struct{ ops int64 }

type unit struct {
	local  int64
	queue  []int64
	shared *counters
}

// Compute is phase code: writes must stay on the receiver.
func (u *unit) Compute(cycle int64, peer *unit, stats *counters) {
	u.local++ // receiver state: fine
	u.queue = append(u.queue, cycle)
	totalOps++     // want `Compute writes package-level variable totalOps`
	peer.local = 7 // want `Compute writes through non-receiver parameter peer`
	stats.ops++    // want `Compute writes through non-receiver parameter stats`
	tmp := cycle   // local define: fine
	tmp++          // local write: fine
	stats = nil    // rebinding the parameter itself: fine
	_ = stats
	_ = tmp
}

// Tick is a phase root: goroutine launches below it are flagged,
// including through helpers.
func (u *unit) Tick() {
	go u.drain() // want `goroutine launched on a phase path \(reachable from Tick\)`
	u.helper()
}

func (u *unit) helper() {
	go func() { // want `goroutine launched on a phase path \(reachable from helper\)`
		u.local = 0
	}()
}

// Step shows the suppression: a guest goroutine synchronized with its
// own tick via channel handshake is the blessed exception.
func (u *unit) Step() {
	go u.drain() //ultravet:ok stagecheck tick-synchronized guest goroutine
}

// Launch is not a phase root and not reachable from one, so it may use
// goroutines freely (host-side setup code does).
func (u *unit) Launch() {
	go u.drain()
}

func (u *unit) drain() { u.queue = u.queue[:0] }

// Commit is also a root; a write through a pointer parameter inside a
// non-Compute method is allowed (merging into a sink is the commit
// phase's job), but goroutines are still not.
func (u *unit) Commit(sink *counters) {
	sink.ops += u.local
	go u.drain() // want `goroutine launched on a phase path \(reachable from Commit\)`
}
