package main

import (
	"fmt"

	"ultracomputer/internal/cache"
	"ultracomputer/internal/sim"
)

// kernel is a generated SPMD guest program: every PE sweeps its own
// region of shared memory through its write-back cache (clds/csts),
// bumps a shared pass counter with fetch-and-add after each sweep, and
// flushes its region (cflu) before halting. Regions are larger than the
// cache, so each sweep misses on every block and writes dirty blocks
// back; they are block-aligned, so no cache block spans two PEs.
type kernel struct {
	src string
	// Word i of PE p's region lives at base + p*length + i; after the
	// run it holds x_passes, where x_0 = 0 and x_{k+1} = a*x_k + c + k.
	base, length, passes, a, c int64
	// counter ends at PEs × passes.
	counter int64
}

// kernelCache is the per-PE cache the kernel runs against: 128 words, a
// fraction of each region.
var kernelCache = cache.Config{Sets: 16, Ways: 2, BlockWords: 4}

// genKernel derives a kernel's data from the run seed: the update
// constants, and so every value it computes and the final memory the
// check expects. Its shape — region length, addresses, pass count — is
// fixed, and simulated timing does not depend on data, so every seed
// does the same simulated work.
func genKernel(seed uint64, passes int64) kernel {
	r := sim.NewRand(subSeed(seed, "kernel"))
	k := kernel{
		base:    1 << 16,
		length:  int64(kernelCache.BlockWords) * 42,
		passes:  passes,
		a:       3 + 2*int64(r.Intn(8)),
		c:       1 + int64(r.Intn(97)),
		counter: 1 << 15,
	}
	k.src = fmt.Sprintf(`; generated cache kernel (see perfbench/kernel.go)
        rdpe r1
        li   r2, %d           ; region length
        mul  r3, r1, r2
        addi r3, r3, %d       ; r3 = region base
        add  r12, r3, r2      ; r12 = region end
        li   r4, 0            ; pass
        li   r5, %d           ; passes
        li   r20, %d          ; a
        li   r21, %d          ; c
        li   r22, %d          ; &counter
        li   r23, 1
pass:   beq  r4, r5, done
        mov  r7, r3
sweep:  beq  r7, r12, endp
        clds r8, 0(r7)
        mul  r8, r8, r20
        add  r8, r8, r21
        add  r8, r8, r4
        csts r8, 0(r7)
        addi r7, r7, 1
        jmp  sweep
endp:   faa  r9, 0(r22), r23
        addi r4, r4, 1
        jmp  pass
done:   cflu r3, r12
        halt
`, k.length, k.base, k.passes, k.a, k.c, k.counter)
	return k
}

// final is the value every region word must hold after the run.
func (k kernel) final() int64 {
	var x int64
	for p := int64(0); p < k.passes; p++ {
		x = k.a*x + k.c + p
	}
	return x
}

// check verifies the kernel's final shared memory on a machine with pes
// PEs; read is the machine's shared-memory reader.
func (k kernel) check(pes int, read func(int64) int64) error {
	if got, want := read(k.counter), int64(pes)*k.passes; got != want {
		return fmt.Errorf("kernel counter = %d, want %d", got, want)
	}
	want := k.final()
	for p := int64(0); p < int64(pes); p++ {
		for i := int64(0); i < k.length; i++ {
			a := k.base + p*k.length + i
			if got := read(a); got != want {
				return fmt.Errorf("kernel M[%d] (PE %d word %d) = %d, want %d", a, p, i, got, want)
			}
		}
	}
	return nil
}
