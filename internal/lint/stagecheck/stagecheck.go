// Package stagecheck defines an analyzer that keeps the simulator's
// cycle loop serial and deterministic. A cycle runs as an ordered
// sequence of phases, each a loop over units (PEs, switch columns,
// memory modules) on one goroutine; same-seed runs are byte-identical
// only while phase code obeys two rules the compiler cannot enforce:
//
//   - A Compute-style method must confine its writes to its receiver's
//     own state. Writing a package-level variable, or through a
//     non-receiver pointer parameter, makes one unit's result depend on
//     the order units happen to run in, which the two-phase
//     Compute/Commit contract (internal/sim) promises it never does.
//
//   - Cycle-path code must not spawn goroutines. A `go` statement
//     reachable from Tick/Step/Compute/Commit introduces host
//     scheduling into simulated time. The one exception is annotated
//     `//ultravet:ok stagecheck <reason>`: a guest-program goroutine
//     that advances in lockstep with its own Tick via a channel
//     handshake and therefore never runs concurrently with phase code.
//
// stagecheck rides the shared call graph (internal/lint/analysis) for
// goroutine-launch reachability, but holds Compute methods to the
// receiver-confinement rule by their direct write effects only, so a
// violation is reported in the method that commits it.
package stagecheck

import (
	"fmt"
	"go/ast"

	"ultracomputer/internal/lint/analysis"
)

// Analyzer is the stagecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "stagecheck",
	Doc: "forbid Compute methods writing non-receiver shared state and goroutine " +
		"launches on Tick/Step/Compute/Commit paths",
	RunProgram: run,
}

// rootNames are the phase entry points; goroutine-launch reachability
// starts here.
var rootNames = map[string]bool{
	"Tick": true, "tick": true,
	"Step": true, "step": true,
	"Compute": true, "compute": true,
	"Commit": true, "commit": true,
}

// computeNames are the methods held to the receiver-confinement rule.
var computeNames = map[string]bool{"Compute": true, "compute": true}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	reach := prog.Reachable(prog.RootsByName(rootNames), nil)

	for _, n := range prog.Nodes {
		if reach[n] {
			checkGoStmts(pass, n)
		}
		if n.Decl != nil && n.Decl.Recv != nil && n.Obj != nil && computeNames[n.Obj.Name()] {
			checkComputeWrites(pass, n)
		}
	}
	return nil
}

// checkGoStmts reports goroutine launches inside one phase-path
// function's own frame (each nested literal is its own node and is
// reached through a containment edge).
func checkGoStmts(pass *analysis.ProgramPass, n *analysis.Node) {
	n.InspectOwn(func(x ast.Node) bool {
		gs, ok := x.(*ast.GoStmt)
		if !ok {
			return true
		}
		pass.Reportf(gs.Pos(), "",
			"goroutine launched on a phase path (reachable from %s): the cycle loop "+
				"is serial; annotate //ultravet:ok stagecheck only for "+
				"tick-synchronized guest goroutines", enclosingName(n))
		return true
	})
}

// enclosingName is the bare name of the nearest named function, so a
// diagnostic inside a closure names the method that built it.
func enclosingName(n *analysis.Node) string {
	for n.Parent != nil && n.Decl == nil {
		n = n.Parent
	}
	if n.Decl != nil {
		return n.Decl.Name.Name
	}
	return n.Name()
}

// checkComputeWrites reports writes escaping the receiver inside a
// Compute method, read straight off the node's direct write effects:
// assignments to package-level variables or through non-receiver
// pointer parameters. (Rebinding a parameter name is fine; so is
// everything reaching only receiver or local state.)
func checkComputeWrites(pass *analysis.ProgramPass, n *analysis.Node) {
	for _, e := range n.Effects {
		if e.Kind != analysis.EffWrite {
			continue
		}
		switch e.Reg.Kind {
		case analysis.RegGlobal:
			name := e.What
			if e.Reg.Obj != nil {
				name = e.Reg.Obj.Name()
			}
			pass.Reportf(e.Pos, "",
				"Compute writes package-level variable %s: phase code must confine writes "+
					"to its receiver (unit results must not depend on visiting order)", name)
		case analysis.RegParam:
			pass.Reportf(e.Pos, "",
				"Compute writes through non-receiver parameter %s: phase code must confine "+
					"writes to its receiver (unit results must not depend on visiting order)",
				paramName(n, e.Reg.Index))
		}
	}
}

// paramName resolves the declared name of parameter index i.
func paramName(n *analysis.Node, i int) string {
	ft := n.FuncType()
	if ft.Params == nil {
		return fmt.Sprintf("#%d", i)
	}
	idx := 0
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if idx == i {
				return name.Name
			}
			idx++
		}
	}
	return fmt.Sprintf("#%d", i)
}
