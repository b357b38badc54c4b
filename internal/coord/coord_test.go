package coord

import (
	"sync"
	"sync/atomic"
	"testing"

	"ultracomputer/internal/para"
)

func TestTIRTDRBasics(t *testing.T) {
	m := para.NewMemory()
	const addr, bound = 0, 3
	for i := 0; i < bound; i++ {
		if !TIR(m, addr, 1, bound) {
			t.Fatalf("TIR %d refused below bound", i)
		}
	}
	if TIR(m, addr, 1, bound) {
		t.Fatal("TIR succeeded at bound")
	}
	if m.Load(addr) != bound {
		t.Fatalf("counter = %d after refused TIR, want %d", m.Load(addr), bound)
	}
	for i := 0; i < bound; i++ {
		if !TDR(m, addr, 1) {
			t.Fatalf("TDR %d refused above zero", i)
		}
	}
	if TDR(m, addr, 1) {
		t.Fatal("TDR succeeded at zero")
	}
	if m.Load(addr) != 0 {
		t.Fatalf("counter = %d after refused TDR, want 0", m.Load(addr))
	}
}

// TestTIRNeverExceedsBound hammers TIR/TDR concurrently; the counter must
// never be observed above the bound or below zero by the invariant's own
// participants (we verify the final state and the reservation ledger).
func TestTIRNeverExceedsBound(t *testing.T) {
	m := para.NewMemory()
	const p, rounds, bound = 16, 300, 5
	acquired := make([]int, p)
	m.Run(p, func(pe int) {
		for i := 0; i < rounds; i++ {
			if TIR(m, 0, 1, bound) {
				acquired[pe]++
				for !TDR(m, 0, 1) {
					m.Pause()
				}
			}
		}
	})
	if got := m.Load(0); got != 0 {
		t.Fatalf("counter = %d after balanced TIR/TDR, want 0", got)
	}
	total := 0
	for _, a := range acquired {
		total += a
	}
	if total == 0 {
		t.Fatal("no TIR ever succeeded")
	}
}

func TestBarrierRounds(t *testing.T) {
	m := para.NewMemory()
	const p, rounds = 8, 20
	b := NewBarrier(m, 100, p)
	// phase[r] counts arrivals recorded in round r; the barrier is
	// correct iff no PE starts round r+1 before all finished r.
	var mu sync.Mutex
	phase := make([]int, rounds)
	m.Run(p, func(pe int) {
		for r := 0; r < rounds; r++ {
			mu.Lock()
			phase[r]++
			if r > 0 && phase[r-1] != p {
				mu.Unlock()
				t.Errorf("PE %d entered round %d before round %d completed", pe, r, r-1)
				return
			}
			mu.Unlock()
			b.Wait()
		}
	})
	for r, c := range phase {
		if c != p {
			t.Fatalf("round %d saw %d arrivals, want %d", r, c, p)
		}
	}
}

func TestSemaphoreBoundsConcurrency(t *testing.T) {
	m := para.NewMemory()
	const p, permits, rounds = 12, 3, 50
	s := NewSemaphore(m, 0, permits)
	var mu sync.Mutex
	inside, maxInside := 0, 0
	m.Run(p, func(pe int) {
		for i := 0; i < rounds; i++ {
			s.P()
			mu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			mu.Unlock()
			mu.Lock()
			inside--
			mu.Unlock()
			s.V()
		}
	})
	if maxInside > permits {
		t.Fatalf("observed %d holders, semaphore allows %d", maxInside, permits)
	}
	if m.Load(0) != permits {
		t.Fatalf("final count = %d, want %d", m.Load(0), permits)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	m := para.NewMemory()
	l := NewSpinLock(m, 0)
	const p, rounds = 8, 200
	counter := 0
	m.Run(p, func(pe int) {
		for i := 0; i < rounds; i++ {
			l.Lock()
			counter++
			l.Unlock()
		}
	})
	if counter != p*rounds {
		t.Fatalf("counter = %d, want %d", counter, p*rounds)
	}
}

func TestQueueSequential(t *testing.T) {
	m := para.NewMemory()
	q := NewQueue(m, 0, 4)
	for i := int64(1); i <= 4; i++ {
		if !q.TryInsert(i * 10) {
			t.Fatalf("insert %d refused", i)
		}
	}
	if q.TryInsert(99) {
		t.Fatal("insert into full queue succeeded (QueueOverflow expected)")
	}
	for i := int64(1); i <= 4; i++ {
		v, ok := q.TryDelete()
		if !ok || v != i*10 {
			t.Fatalf("delete %d = (%d, %v), want %d", i, v, ok, i*10)
		}
	}
	if _, ok := q.TryDelete(); ok {
		t.Fatal("delete from empty queue succeeded (QueueUnderflow expected)")
	}
	// Wraparound across rounds.
	for round := 0; round < 5; round++ {
		q.Insert(int64(round))
		if v := q.Delete(); v != int64(round) {
			t.Fatalf("wraparound round %d: got %d", round, v)
		}
	}
}

// TestQueueConcurrentConservation: P producers insert disjoint values, P
// consumers drain them; every value must come out exactly once.
func TestQueueConcurrentConservation(t *testing.T) {
	m := para.NewMemory()
	const p, per, capacity = 8, 500, 32
	q := NewQueue(m, 0, capacity)
	out := make([][]int64, p)
	m.Run(2*p, func(pe int) {
		if pe < p { // producer
			for i := 0; i < per; i++ {
				q.Insert(int64(pe*per + i + 1))
			}
		} else { // consumer
			me := pe - p
			for i := 0; i < per; i++ {
				out[me] = append(out[me], q.Delete())
			}
		}
	})
	seen := make(map[int64]bool, p*per)
	for _, vs := range out {
		for _, v := range vs {
			if v < 1 || v > p*per || seen[v] {
				t.Fatalf("value %d missing-range or duplicated", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != p*per {
		t.Fatalf("drained %d values, want %d", len(seen), p*per)
	}
	if q.Len() != 0 {
		t.Fatalf("queue length %d after drain", q.Len())
	}
}

// TestQueueFIFOProperty checks the appendix's ordering guarantee with a
// single producer and many consumers. The producer inserts 1..n in
// order, so FIFO means delete ticket k yields value k+1. Each consumer's
// deletes complete one after another, so their tickets — and therefore
// the values each consumer sees — must be strictly ascending. Unlike a
// log of deletes recorded after they return, that order does not depend
// on how the host schedules the consumers. Conservation (every value
// deleted exactly once) completes the check.
func TestQueueFIFOProperty(t *testing.T) {
	m := para.NewMemory()
	const consumers, n = 6, 600
	q := NewQueue(m, 0, 16)
	got := make([][]int64, consumers)
	var deleted atomic.Int64
	m.Run(consumers+1, func(pe int) {
		if pe == 0 {
			for i := int64(1); i <= n; i++ {
				q.Insert(i)
			}
			return
		}
		me := pe - 1
		for {
			v := q.Delete()
			if v < 0 {
				return
			}
			got[me] = append(got[me], v)
			if deleted.Add(1) == n {
				// Poison the consumers.
				for i := 0; i < consumers; i++ {
					q.Insert(-1)
				}
			}
		}
	})
	seen := make(map[int64]bool, n)
	for c, vs := range got {
		for i, v := range vs {
			if i > 0 && v <= vs[i-1] {
				t.Fatalf("consumer %d deleted %d after %d: not FIFO", c, v, vs[i-1])
			}
			if v < 1 || v > n || seen[v] {
				t.Fatalf("value %d out of range or deleted twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("deleted %d distinct values, want %d", len(seen), n)
	}
}

func TestRWLockReadersParallelWritersExclusive(t *testing.T) {
	m := para.NewMemory()
	l := NewRWLock(m, 0)
	const readers, writers, rounds = 8, 3, 60
	var mu sync.Mutex
	activeR, activeW, maxR := 0, 0, 0
	m.Run(readers+writers, func(pe int) {
		if pe < readers {
			for i := 0; i < rounds; i++ {
				l.RLock()
				mu.Lock()
				if activeW > 0 {
					t.Errorf("reader inside while writer active")
				}
				activeR++
				if activeR > maxR {
					maxR = activeR
				}
				mu.Unlock()
				mu.Lock()
				activeR--
				mu.Unlock()
				l.RUnlock()
			}
			return
		}
		for i := 0; i < rounds; i++ {
			l.Lock()
			mu.Lock()
			if activeR != 0 || activeW != 0 {
				t.Errorf("writer inside with %d readers, %d writers", activeR, activeW)
			}
			activeW++
			mu.Unlock()
			mu.Lock()
			activeW--
			mu.Unlock()
			l.Unlock()
		}
	})
	if maxR < 2 {
		t.Logf("note: never observed reader overlap (maxR=%d); scheduling-dependent", maxR)
	}
}

func TestSchedulerRunsAllTasksIncludingSpawned(t *testing.T) {
	m := para.NewMemory()
	s := NewScheduler(m, 0, 64)
	const workers, roots = 6, 40
	// Task v > 0: record it; tasks divisible by 4 spawn a child -v... use
	// encoding: root tasks 1..roots; task v spawns v+1000 when v <= 10.
	var mu sync.Mutex
	ran := map[int64]bool{}
	for i := int64(1); i <= roots; i++ {
		s.Submit(i)
	}
	m.Run(workers, func(pe int) {
		for {
			task, ok := s.Next()
			if !ok {
				return
			}
			if task <= 10 {
				s.Submit(task + 1000) // spawn before finishing: no completion race
			}
			mu.Lock()
			ran[task] = true
			mu.Unlock()
			s.Finish()
		}
	})
	want := roots + 10
	if len(ran) != want {
		t.Fatalf("ran %d tasks, want %d", len(ran), want)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after join", s.Outstanding())
	}
}
