package engine

import "testing"

// The Serial engine must cover each unit exactly once per Run, in one
// call, and skip empty phases.
func TestEnginesCoverAllUnits(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		hits := make([]int, n)
		calls := 0
		Serial{}.Run(n, func(lo, hi, worker int) {
			calls++
			if worker != 0 {
				t.Fatalf("n=%d: worker %d, want 0", n, worker)
			}
			for u := lo; u < hi; u++ {
				hits[u]++
			}
		})
		for u, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: unit %d executed %d times, want 1", n, u, h)
			}
		}
		if want := min(n, 1); calls != want {
			t.Fatalf("n=%d: %d calls, want %d", n, calls, want)
		}
	}
}
