package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes per-function write sets over a conservative
// escape/aliasing lattice, then propagates them across the call graph
// to a fixpoint, so an analyzer can ask "what memory does this function
// transitively write, expressed in its own frame?".
//
// The lattice classifies what memory an expression evaluates into:
//
//	RegNone    no memory (arithmetic, literals)
//	RegLocal   storage owned by this call frame: locals, fresh make/new/
//	           composite allocations
//	RegRecv    memory reachable from the receiver
//	RegParam   memory reachable from parameter i
//	RegGlobal  a package-level variable (which one, in Obj)
//	RegCapture a variable captured from an enclosing function (in Obj)
//	RegShared  top: unknown or mixed provenance
//
// Joins of unequal non-None regions go to RegShared. The analysis is
// flow-insensitive (one environment per function, iterated to a local
// fixpoint) and deliberately one-level: a pointer stored into a
// locally-built struct keeps the struct RegLocal — that hole is
// documented in DESIGN.md, and is why write-set conclusions (stagecheck's
// Compute rule, lockcheck's regions) hold only up to the lattice, with
// the golden-digest suites as the dynamic backstop.

// RegionKind is the lattice level.
type RegionKind uint8

const (
	RegNone RegionKind = iota
	RegLocal
	RegRecv
	RegParam
	RegGlobal
	RegCapture
	RegShared
)

func (k RegionKind) String() string {
	switch k {
	case RegNone:
		return "none"
	case RegLocal:
		return "local"
	case RegRecv:
		return "receiver"
	case RegParam:
		return "parameter"
	case RegGlobal:
		return "global"
	case RegCapture:
		return "captured"
	}
	return "shared"
}

// Region is one lattice point.
type Region struct {
	Kind  RegionKind
	Index int        // parameter index, RegParam only
	Obj   *types.Var // the variable, RegGlobal/RegCapture only
}

func join(a, b Region) Region {
	if a == b || b.Kind == RegNone {
		return a
	}
	if a.Kind == RegNone {
		return b
	}
	if a.Kind == RegLocal && b.Kind == RegLocal {
		return Region{Kind: RegLocal}
	}
	return Region{Kind: RegShared}
}

// EffectKind classifies one observable side effect.
type EffectKind uint8

const (
	EffWrite EffectKind = iota // store through/into Reg
	EffSend                    // channel send on a channel in Reg
)

// Effect is one write-set entry: a store or send, the region it lands
// in (expressed in the owning function's frame), and the originating
// source site for diagnostics.
type Effect struct {
	Kind   EffectKind
	Reg    Region
	IsMap  bool // the store targets a map entry (or delete)
	Direct bool // the store rebinds the variable itself, not memory behind it
	Pos    token.Pos
	Node   *Node  // function whose body contains the primitive site
	What   string // short description of the written thing
}

// SummaryKey canonicalizes an effect for the interprocedural fixpoint
// (origin position and description ride along on the representative
// Effect but do not participate in identity, keeping the lattice
// finite).
type SummaryKey struct {
	Kind   EffectKind
	RKind  RegionKind
	Index  int
	Obj    *types.Var
	IsMap  bool
	Direct bool
}

func keyOf(e Effect) SummaryKey {
	return SummaryKey{Kind: e.Kind, RKind: e.Reg.Kind, Index: e.Reg.Index,
		Obj: e.Reg.Obj, IsMap: e.IsMap, Direct: e.Direct}
}

// Alloc is one potential heap-allocation site (hotalloc's raw material).
type Alloc struct {
	Pos  token.Pos
	Node *Node
	What string
}

// buildWriteSets computes, for every node: the local alias environment,
// the primitive effects and allocation sites of its own body, and then
// the transitive Summary by propagating callee effects through call
// sites to a fixpoint.
func (p *Program) buildWriteSets() {
	for _, n := range p.Nodes {
		p.scanFrame(n)
	}
	for _, n := range p.Nodes {
		p.buildEnv(n)
	}
	for _, n := range p.Nodes {
		p.collectEffects(n)
		n.Summary = map[SummaryKey]Effect{}
		for _, e := range n.Effects {
			if _, ok := n.Summary[keyOf(e)]; !ok {
				n.Summary[keyOf(e)] = e
			}
		}
	}
	// Interprocedural fixpoint: pull callee summaries through call
	// sites until no summary grows. Keys are finite (kinds × regions ×
	// program variables), so this terminates.
	for changed := true; changed; {
		changed = false
		for _, n := range p.Nodes {
			for _, e := range n.Calls {
				for _, eff := range SortedEffects(e.Callee.Summary) {
					t, ok := p.translate(n, e, eff)
					if !ok {
						continue
					}
					if _, dup := n.Summary[keyOf(t)]; !dup {
						n.Summary[keyOf(t)] = t
						changed = true
					}
				}
			}
		}
	}
}

// SortedEffects returns a summary's effects in deterministic (source
// position, then description) order, so fixpoint representatives and
// diagnostics never depend on map iteration.
func SortedEffects(m map[SummaryKey]Effect) []Effect {
	out := make([]Effect, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sortEffects(out)
	return out
}

func sortEffects(out []Effect) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
}

func less(a, b Effect) bool {
	if a.Pos != b.Pos {
		return a.Pos < b.Pos
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.What < b.What
}

// scanFrame records n's receiver and parameter objects.
func (p *Program) scanFrame(n *Node) {
	info := n.Pkg.Info
	n.params = map[*types.Var]int{}
	idx := 0
	if n.Decl != nil && n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 && len(n.Decl.Recv.List[0].Names) > 0 {
		n.recv, _ = info.Defs[n.Decl.Recv.List[0].Names[0]].(*types.Var)
	}
	if ft := n.FuncType(); ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj, ok := info.Defs[name].(*types.Var); ok {
					n.params[obj] = idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
	}
}

// classify resolves what region a variable object belongs to in n's
// frame.
func (p *Program) classify(n *Node, obj *types.Var) Region {
	if obj == nil {
		return Region{Kind: RegShared}
	}
	if obj == n.recv {
		return Region{Kind: RegRecv}
	}
	if i, ok := n.params[obj]; ok {
		return Region{Kind: RegParam, Index: i}
	}
	if obj.Parent() == n.Pkg.Types.Scope() || (obj.Pkg() != nil && obj.Pkg() != n.Pkg.Types) {
		return Region{Kind: RegGlobal, Obj: obj}
	}
	if r, ok := n.env[obj]; ok {
		return r
	}
	if p.declaredIn(n, obj) {
		return Region{Kind: RegLocal}
	}
	// Declared in an enclosing function: a closure capture.
	return Region{Kind: RegCapture, Obj: obj}
}

// declaredIn reports whether obj's declaration position falls inside
// n's own body (excluding nested literals' bodies — their locals are
// captures from n's perspective only when used here, and uses of a
// nested literal's locals cannot appear in n).
func (p *Program) declaredIn(n *Node, obj *types.Var) bool {
	body := n.Body()
	if obj.Pos() >= body.Pos() && obj.Pos() <= body.End() {
		return true
	}
	// Receiver/parameter positions sit before the body.
	if n.Decl != nil {
		return obj.Pos() >= n.Decl.Pos() && obj.Pos() <= n.Decl.End()
	}
	return obj.Pos() >= n.Lit.Pos() && obj.Pos() <= n.Lit.End()
}

// RegionOf exposes the alias lattice to analyzers outside this
// package: the region expression e evaluates into, in n's frame.
// lockcheck uses it to exempt constructor writes (RegLocal bases) from
// the mixed plain/atomic rule.
func (p *Program) RegionOf(n *Node, e ast.Expr) Region { return p.regionOf(n, e) }

// regionOf evaluates the lattice region an expression's value points
// into.
func (p *Program) regionOf(n *Node, e ast.Expr) Region {
	info := n.Pkg.Info
	switch e := e.(type) {
	case *ast.ParenExpr:
		return p.regionOf(n, e.X)
	case *ast.Ident:
		if obj, ok := info.Uses[e].(*types.Var); ok {
			return p.classify(n, obj)
		}
		if obj, ok := info.Defs[e].(*types.Var); ok {
			return p.classify(n, obj)
		}
		return Region{Kind: RegNone}
	case *ast.SelectorExpr:
		// Qualified package var: pkg.V.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if obj, ok := info.Uses[e.Sel].(*types.Var); ok {
					return Region{Kind: RegGlobal, Obj: obj}
				}
				return Region{Kind: RegShared}
			}
		}
		return p.regionOf(n, e.X)
	case *ast.IndexExpr:
		return p.regionOf(n, e.X)
	case *ast.SliceExpr:
		return p.regionOf(n, e.X)
	case *ast.StarExpr:
		return p.regionOf(n, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if r := p.regionOf(n, e.X); r.Kind != RegNone {
				return r
			}
			return Region{Kind: RegLocal}
		}
		return Region{Kind: RegNone}
	case *ast.CompositeLit:
		return Region{Kind: RegLocal}
	case *ast.TypeAssertExpr:
		return p.regionOf(n, e.X)
	case *ast.CallExpr:
		switch fn := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			switch fn.Name {
			case "make", "new":
				if _, isBuiltin := info.Uses[fn].(*types.Builtin); isBuiltin {
					return Region{Kind: RegLocal}
				}
			case "append":
				if _, isBuiltin := info.Uses[fn].(*types.Builtin); isBuiltin && len(e.Args) > 0 {
					// append may reallocate, but ownership follows the
					// slice being grown.
					return p.regionOf(n, e.Args[0])
				}
			}
			// Conversion T(x) keeps x's region.
			if _, isType := info.Uses[fn].(*types.TypeName); isType && len(e.Args) == 1 {
				return p.regionOf(n, e.Args[0])
			}
		}
		return Region{Kind: RegShared}
	case *ast.FuncLit:
		return Region{Kind: RegLocal}
	}
	return Region{Kind: RegNone}
}

// buildEnv computes n's local alias environment: for every local
// variable, the join of the regions ever assigned to it. Iterated to a
// fixpoint because locals can chain (a := s.m; b := a).
func (p *Program) buildEnv(n *Node) {
	n.env = map[*types.Var]Region{}
	info := n.Pkg.Info
	bind := func(id *ast.Ident, r Region) bool {
		obj, ok := info.Defs[id].(*types.Var)
		if !ok {
			obj, ok = info.Uses[id].(*types.Var)
		}
		if !ok || obj == n.recv {
			return false
		}
		// Assigning a basic value (number, string, bool) copies it: the
		// local never aliases the source's storage, so it stays RegLocal
		// no matter what it was copied from.
		if _, basic := obj.Type().Underlying().(*types.Basic); basic {
			return false
		}
		if _, isParam := n.params[obj]; isParam {
			return false
		}
		if obj.Parent() == n.Pkg.Types.Scope() {
			return false
		}
		old, seen := n.env[obj]
		nw := join(old, r)
		if !seen || nw != old {
			n.env[obj] = nw
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		n.InspectOwn(func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					var r Region
					if len(x.Rhs) == len(x.Lhs) {
						r = p.regionOf(n, x.Rhs[i])
					} else {
						// Multi-value call/assert: unknown provenance,
						// except comma-ok bools which are RegNone.
						r = Region{Kind: RegShared}
					}
					if bind(id, r) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					var r Region
					if i < len(x.Values) {
						r = p.regionOf(n, x.Values[i])
					}
					if bind(name, r) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				r := p.regionOf(n, x.X)
				for _, v := range []ast.Expr{x.Key, x.Value} {
					if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
						if bind(id, r) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
}

// collectEffects gathers n's primitive write/send effects and
// allocation sites.
func (p *Program) collectEffects(n *Node) {
	info := n.Pkg.Info
	writeTo := func(lhs ast.Expr) {
		lhs = ast.Unparen(lhs)
		switch t := lhs.(type) {
		case *ast.Ident:
			// Rebinding a bare name only matters when the storage is
			// shared: a global, or a variable captured from an
			// enclosing frame.
			obj, _ := info.Uses[t].(*types.Var)
			if obj == nil {
				return
			}
			r := p.classify(n, obj)
			if r.Kind == RegGlobal || r.Kind == RegCapture {
				n.Effects = append(n.Effects, Effect{
					Kind: EffWrite, Reg: Region{Kind: r.Kind, Obj: obj}, Direct: true,
					Pos: t.Pos(), Node: n, What: obj.Name(),
				})
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			base, isMap := p.writeBase(n, lhs)
			if base.Kind == RegNone || base.Kind == RegLocal {
				return
			}
			n.Effects = append(n.Effects, Effect{
				Kind: EffWrite, Reg: base, IsMap: isMap,
				Pos: lhs.Pos(), Node: n, What: exprString(lhs),
			})
		}
	}
	// Allocations that exist only to feed panic (error formatting,
	// &SomeError{...}) are crash paths, not steady-state work; record
	// their source ranges so they can be dropped below.
	type span struct{ lo, hi token.Pos }
	var panicArgs []span
	n.InspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range x.Lhs {
				writeTo(lhs)
			}
		case *ast.IncDecStmt:
			writeTo(x.X)
		case *ast.SendStmt:
			r := p.regionOf(n, x.Chan)
			if r.Kind != RegLocal && r.Kind != RegNone {
				n.Effects = append(n.Effects, Effect{
					Kind: EffSend, Reg: r, Pos: x.Pos(), Node: n, What: exprString(x.Chan),
				})
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					for _, a := range x.Args {
						panicArgs = append(panicArgs, span{a.Pos(), a.End()})
					}
				}
			}
			p.callEffects(n, x)
		case *ast.FuncLit:
			if child := p.ByLit[x]; child != nil && p.captures(child) {
				n.Allocs = append(n.Allocs, Alloc{Pos: x.Pos(), Node: n, What: "closure captures variables (heap-allocates per call)"})
			}
		case *ast.CompositeLit:
			switch x.Type.(type) {
			case *ast.ArrayType, *ast.MapType:
				n.Allocs = append(n.Allocs, Alloc{Pos: x.Pos(), Node: n, What: "composite " + exprString(x.Type) + " literal"})
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
					n.Allocs = append(n.Allocs, Alloc{Pos: x.Pos(), Node: n, What: "address of composite literal"})
				}
			}
		}
		return true
	})
	if len(panicArgs) > 0 {
		kept := n.Allocs[:0]
		for _, a := range n.Allocs {
			cold := false
			for _, s := range panicArgs {
				if a.Pos >= s.lo && a.Pos < s.hi {
					cold = true
					break
				}
			}
			if !cold {
				kept = append(kept, a)
			}
		}
		n.Allocs = kept
	}
}

// callEffects handles builtin writes (delete, copy) and allocation
// sites introduced by calls (make, new, growing append, fmt boxing).
func (p *Program) callEffects(n *Node, call *ast.CallExpr) {
	info := n.Pkg.Info
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin {
			return
		}
		switch fn.Name {
		case "delete":
			if len(call.Args) > 0 {
				r := p.regionOf(n, call.Args[0])
				if r.Kind != RegLocal && r.Kind != RegNone {
					n.Effects = append(n.Effects, Effect{
						Kind: EffWrite, Reg: r, IsMap: true,
						Pos: call.Pos(), Node: n, What: "delete(" + exprString(call.Args[0]) + ")",
					})
				}
			}
		case "copy":
			if len(call.Args) > 0 {
				r := p.regionOf(n, call.Args[0])
				if r.Kind != RegLocal && r.Kind != RegNone {
					n.Effects = append(n.Effects, Effect{
						Kind: EffWrite, Reg: r,
						Pos: call.Pos(), Node: n, What: "copy into " + exprString(call.Args[0]),
					})
				}
			}
		case "make":
			n.Allocs = append(n.Allocs, Alloc{Pos: call.Pos(), Node: n, What: "make" + typeArgString(call)})
		case "new":
			n.Allocs = append(n.Allocs, Alloc{Pos: call.Pos(), Node: n, What: "new" + typeArgString(call)})
		case "append":
			if len(call.Args) > 0 {
				r := p.regionOf(n, call.Args[0])
				if r.Kind == RegLocal || r.Kind == RegNone {
					n.Allocs = append(n.Allocs, Alloc{
						Pos: call.Pos(), Node: n,
						What: "append to function-local slice " + exprString(call.Args[0]) + " (allocates per call)",
					})
				}
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fn.X.(*ast.Ident); ok {
			if pkg, isPkg := info.Uses[id].(*types.PkgName); isPkg && pkg.Imported().Path() == "fmt" {
				n.Allocs = append(n.Allocs, Alloc{
					Pos: call.Pos(), Node: n,
					What: "fmt." + fn.Sel.Name + " (boxes arguments, allocates)",
				})
			}
		}
	}
}

// captures reports whether the literal node references any variable
// from an enclosing function frame.
func (p *Program) captures(n *Node) bool {
	info := n.Pkg.Info
	found := false
	n.InspectOwn(func(x ast.Node) bool {
		if found {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if r := p.classify(n, obj); r.Kind == RegCapture {
			found = true
		}
		return true
	})
	return found
}

// writeBase strips the final selector/index/star layer off an lvalue
// and classifies the remaining path, noting whether the final layer was
// a map entry.
func (p *Program) writeBase(n *Node, lhs ast.Expr) (Region, bool) {
	switch t := lhs.(type) {
	case *ast.SelectorExpr:
		return p.regionOf(n, t.X), false
	case *ast.IndexExpr:
		tv, ok := n.Pkg.Info.Types[t.X]
		isMap := false
		if ok {
			_, isMap = tv.Type.Underlying().(*types.Map)
		}
		return p.regionOf(n, t.X), isMap
	case *ast.StarExpr:
		return p.regionOf(n, t.X), false
	}
	return Region{Kind: RegNone}, false
}

// translate rewrites a callee effect into the caller's frame through
// one call edge, or reports that it is absorbed (lands in
// callee-created or caller-local memory).
func (p *Program) translate(n *Node, e Edge, eff Effect) (Effect, bool) {
	out := eff // keeps origin Pos/Node/What for the diagnostic
	switch eff.Reg.Kind {
	case RegGlobal, RegShared:
		return out, true
	case RegCapture:
		// The captured variable resolves in this frame.
		r := p.classify(n, eff.Reg.Obj)
		if r.Kind == RegLocal || r.Kind == RegNone {
			return out, false
		}
		out.Reg = r
		return out, true
	case RegRecv:
		if e.Call == nil {
			return out, false // containment edge: literals have no receiver
		}
		return p.retarget(n, e, out, recvExpr(e.Call))
	case RegParam:
		if e.Call == nil {
			// A literal's parameters are bound at its eventual call
			// site, which this edge does not see: assume shared.
			out.Reg = Region{Kind: RegShared}
			return out, true
		}
		if eff.Reg.Index >= len(e.Call.Args) {
			out.Reg = Region{Kind: RegShared}
			return out, true
		}
		return p.retarget(n, e, out, e.Call.Args[eff.Reg.Index])
	}
	return out, false
}

// retarget classifies arg in n's frame and folds the result into the
// effect.
func (p *Program) retarget(n *Node, e Edge, eff Effect, arg ast.Expr) (Effect, bool) {
	if arg == nil {
		eff.Reg = Region{Kind: RegShared}
		return eff, true
	}
	r := p.regionOf(n, arg)
	switch r.Kind {
	case RegLocal, RegNone:
		return eff, false // absorbed by caller-owned memory
	}
	eff.Reg = r
	return eff, true
}

// recvExpr extracts the receiver expression of a method call, nil for
// plain function calls.
func recvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// exprString renders a compact description of an expression for
// diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[…]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.ArrayType:
		return "[]" + exprString(e.Elt)
	case *ast.MapType:
		return "map[" + exprString(e.Key) + "]" + exprString(e.Value)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	}
	return "expr"
}

// typeArgString renders make/new's type argument.
func typeArgString(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return "(…)"
	}
	return "(" + exprString(call.Args[0]) + ")"
}
