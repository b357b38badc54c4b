package mc

import (
	"fmt"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/isa"
	"ultracomputer/internal/machine"
	"ultracomputer/internal/network"
)

// Counterexample replay: feed a violation's schedule back into the real
// machine via Machine.StepPE and confirm the property trips dynamically.
// Static finding and dynamic reproduction cross-validate — the checker's
// abstraction (atomic instructions, word-granular infinite cache) is
// kept honest against the cycle-accurate simulator.
//
// The machine is configured so its observable memory behavior matches
// the model exactly at schedule granularity: a combining network (shared
// ops serialize at the MMs, any shape works since StepPE drains between
// steps), and a one-word-block cache large enough never to evict (the
// model's per-word infinite cache).

// ReplayReport is the outcome of replaying one counterexample.
type ReplayReport struct {
	Confirmed bool   // the violation reproduced on the machine
	Reason    string // why not, when Confirmed is false
	PECycles  int64  // machine PE cycles consumed by the replay
}

// replayStepBudget bounds each schedule step, and the post-schedule run
// of a deadlock replay, in network cycles.
const replayStepBudget = 1 << 16

// Replay runs v's schedule against a machine executing src and checks
// that the violated property really fails there. src must be the same
// source the checker saw.
func Replay(src string, v *Violation) (*ReplayReport, error) {
	prog, err := isa.Assemble(src)
	if err != nil {
		return nil, err
	}
	anno, err := ParseAnnotations(src, prog)
	if err != nil {
		return nil, err
	}
	if v.PEs < 1 {
		return nil, fmt.Errorf("mc: replay: counterexample has no PE count")
	}
	cfg := machine.Config{
		Net:     network.Config{K: 2, Stages: netStages(v.PEs), Combining: true},
		PEs:     v.PEs,
		Hashing: true,
	}
	m, cores, err := machine.Load(cfg, prog, machine.LoadOptions{
		// One-word blocks in a cache big enough that nothing evicts:
		// the model's per-word infinite cache, realized in hardware
		// terms.
		Cache: &cache.Config{Sets: 4096, Ways: 2, BlockWords: 1},
	})
	if err != nil {
		return nil, err
	}

	for i, st := range v.Steps {
		if st.PE < 0 || st.PE >= v.PEs {
			return nil, fmt.Errorf("mc: replay: step %d names PE %d of %d", i, st.PE, v.PEs)
		}
		if err := m.StepPE(st.PE, replayStepBudget); err != nil {
			return nil, fmt.Errorf("mc: replay: step %d: %v", i, err)
		}
	}

	rep := &ReplayReport{PECycles: m.PECycles()}

	// The machine's memory must land exactly on the checker's footprint;
	// a mismatch means the schedule diverged and nothing downstream is
	// meaningful.
	for _, cell := range v.Memory {
		if got := m.ReadShared(cell.Addr); got != cell.Val {
			rep.Reason = fmt.Sprintf("memory diverged: M[%d] = %d on the machine, %d in the model", cell.Addr, got, cell.Val)
			return rep, nil
		}
	}

	mem := func(a int64) int64 { return m.ReadShared(a) }
	switch v.Kind {
	case KindInvariant, KindFinal:
		p, perr := parseExpr(v.Prop, false)
		if perr != nil {
			return nil, fmt.Errorf("mc: replay: bad property %q: %v", v.Prop, perr)
		}
		if p.eval(&EvalCtx{NPEs: v.PEs, Mem: mem}) != 0 {
			rep.Reason = fmt.Sprintf("property %q holds on the machine", v.Prop)
			return rep, nil
		}
	case KindAssert:
		core := cores[v.PE]
		if core.PC() != v.PC {
			rep.Reason = fmt.Sprintf("PE%d at pc %d on the machine, %d in the model", v.PE, core.PC(), v.PC)
			return rep, nil
		}
		p, perr := parseExpr(v.Prop, true)
		if perr != nil {
			return nil, fmt.Errorf("mc: replay: bad property %q: %v", v.Prop, perr)
		}
		ctx := &EvalCtx{NPEs: v.PEs, PE: v.PE, Mem: mem,
			Reg: func(r int) int64 { return core.Reg(r) }}
		if p.eval(ctx) != 0 {
			rep.Reason = fmt.Sprintf("assertion %q holds on the machine", v.Prop)
			return rep, nil
		}
	case KindNoConcur:
		if got := cores[v.PE].PC(); got != v.PC {
			rep.Reason = fmt.Sprintf("PE%d at pc %d on the machine, %d in the model", v.PE, got, v.PC)
			return rep, nil
		}
		if got := cores[v.PE2].PC(); got != v.PC2 {
			rep.Reason = fmt.Sprintf("PE%d at pc %d on the machine, %d in the model", v.PE2, got, v.PC2)
			return rep, nil
		}
		// Both pcs inside mutually-excluded regions: check region
		// membership too, so the confirmation does not rest on the
		// model's bookkeeping alone.
		if !v.inRegions(anno) {
			rep.Reason = "replayed pcs fall outside the declared regions"
			return rep, nil
		}
	case KindDeadlock:
		// Every scheduled instruction has run; now let the machine free-run.
		// A real deadlock never reaches Done.
		if _, done := m.Run(m.Cycles() + replayStepBudget); done {
			rep.Reason = "machine ran to completion after the schedule"
			return rep, nil
		}
	case KindLostUpdate:
		// The schedule ends with the clobbering store; the memory
		// footprint equality above already proves the machine wrote the
		// same stale value over the concurrent update.
	default:
		return nil, fmt.Errorf("mc: replay: unknown violation kind %q", v.Kind)
	}
	rep.Confirmed = true
	return rep, nil
}

// inRegions checks the two violating pcs really sit inside the named
// region pair.
func (v *Violation) inRegions(anno *Annotations) bool {
	var a, b string
	if n, _ := fmt.Sscanf(v.Prop, "%s %s", &a, &b); n != 2 {
		return false
	}
	ra, ok1 := anno.Regions[a]
	rb, ok2 := anno.Regions[b]
	return ok1 && ok2 && inRegion(v.PC, ra) && inRegion(v.PC2, rb)
}

// netStages picks the smallest K=2 Omega network with at least n ports.
func netStages(n int) int {
	s := 1
	for (1 << s) < n {
		s++
	}
	return s
}
