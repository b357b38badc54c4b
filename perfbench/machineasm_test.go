package main

import (
	"bytes"
	"strings"
	"testing"
)

func testBench(name string) *bench {
	return &bench{name: name, seed: 7, metrics: map[string]metric{}, expected: &expectations{Workloads: map[string]map[string]string{}}}
}

func testPrograms(t *testing.T) []asmProgram {
	t.Helper()
	progs, err := asmPrograms("..", 3)
	if err != nil {
		t.Fatal(err)
	}
	// A short kernel keeps the test fast; the shape is the benchmark's.
	k := genKernel(3, 2)
	progs[len(progs)-1].src = k.src
	progs[len(progs)-1].check = func(read func(int64) int64) error { return k.check(asmPEs, read) }
	return progs
}

// TestWrappersAreTransparent: the wrapped engine and cores must leave
// every report byte-identical to a plain machine.Load run, every step
// must make 2 or 3 engine Run calls in memory/collect/tick order, and
// every program's documented final memory must hold.
func TestWrappersAreTransparent(t *testing.T) {
	for _, p := range testPrograms(t) {
		plain, err := runPlain(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.check(plain.m.ReadShared); err != nil {
			t.Errorf("%s plain: %v", p.name, err)
		}
		b := testBench("machine-asm")
		tr := NewTracer(0)
		traced, _, err := runTraced(b, p, tr)
		if err != nil {
			t.Fatal(err)
		}
		if b.failed != 0 {
			t.Errorf("%s: %v", p.name, b.notes)
		}
		if !bytes.Equal(plain.report, traced.report) {
			t.Errorf("%s: wrapped report differs:\n%s\nplain:\n%s", p.name, traced.report, plain.report)
		}
		if err := p.check(traced.m.ReadShared); err != nil {
			t.Errorf("%s traced: %v", p.name, err)
		}
		steps := tr.Calls(spStep)
		runs := tr.Calls(spMemory) + tr.Calls(spPECollect) + tr.Calls(spPETick)
		if steps != traced.cycles || tr.Calls(spMemory) != steps || tr.Calls(spPECollect) != steps ||
			tr.Calls(spPETick) != (steps+1)/2 || runs < 2*steps || runs > 3*steps {
			t.Errorf("%s: %d steps made %d memory, %d collect, %d tick Run calls", p.name, steps,
				tr.Calls(spMemory), tr.Calls(spPECollect), tr.Calls(spPETick))
		}
		if tr.Calls(spISATick) == 0 || tr.Total(spISATick) > tr.Total(spPETick) {
			t.Errorf("%s: isa.tick spans %d (%d ns) not nested in pe.tick (%d ns)", p.name,
				tr.Calls(spISATick), tr.Total(spISATick), tr.Total(spPETick))
		}
	}
}

// TestPhaseCheck: checkStep accepts exactly memory, collect and — on a
// PE-cycle boundary — tick, over the right unit counts.
func TestPhaseCheck(t *testing.T) {
	e := newPhaseEngine(nil)
	for _, c := range []struct {
		cycle int64
		ns    []int
		ok    bool
	}{
		{0, []int{64, 16, 16}, true},
		{1, []int{64, 16}, true},
		{0, []int{64, 16}, false},     // tick missing on a PE cycle
		{1, []int{64, 16, 16}, false}, // tick off a PE cycle
		{1, []int{16, 64}, false},     // wrong order
		{0, []int{64, 16, 16, 16}, false},
	} {
		e.ns = c.ns
		err := e.checkStep(c.cycle, 2, 64, 16)
		if (err == nil) != c.ok {
			t.Errorf("cycle %d calls %v: err %v, want ok=%v", c.cycle, c.ns, err, c.ok)
		}
	}
}

// TestKernelCheckCatchesWrongMemory: the generated kernel's final-memory
// check fails on a wrong word.
func TestKernelCheckCatchesWrongMemory(t *testing.T) {
	k := genKernel(5, 3)
	good := func(a int64) int64 {
		if a == k.counter {
			return 4 * k.passes
		}
		return k.final()
	}
	if err := k.check(4, good); err != nil {
		t.Fatalf("correct memory rejected: %v", err)
	}
	bad := func(a int64) int64 {
		if a == k.base+2*k.length+7 {
			return k.final() + 1
		}
		return good(a)
	}
	if err := k.check(4, bad); err == nil || !strings.Contains(err.Error(), "PE 2 word 7") {
		t.Errorf("wrong word not reported: %v", err)
	}
}
