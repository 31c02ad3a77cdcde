package lint

import (
	"go/ast"
	"go/types"
)

// The poolescape analyzer guards the pooled serving loop: a value obtained
// from a sync.Pool.Get (or handed out by a sparse.Workspace arena) is only
// on loan until the matching Put/Reset, and any reference that survives the
// release aliases memory the next query will scribble over — the bug class
// that corrupts results silently instead of crashing.
//
// The check is function-local and deliberately conservative: it tracks
// local variables initialised directly from a pool source and flags the
// flows that outlive the function's own frame —
//
//   - returning the value (except from a single-expression accessor whose
//     whole body is `return pool.Get().(T)`; call sites of such accessors
//     are themselves treated as pool sources),
//   - storing it into a struct field, array/slice/map element, or a
//     package-level variable,
//   - sending it on a channel,
//   - capturing it in a goroutine launched with `go` (the goroutine can
//     outlive the Put that follows),
//   - capturing it in a closure handed to one of the internal/par loop
//     drivers (For, ForEach, ForEachCtx): the loop body runs on several
//     goroutines at once, so a single shared workspace races with itself
//     even though every worker finishes before the Put. Each worker must
//     own its arena (Get inside the closure).
//
// Passing the value to an ordinary call is allowed — that is exactly what
// the `defer pool.Put(v)` pattern and the kernel invocations do. Methods of
// an arena type itself are exempt: the arena hands its own buffers out by
// design.

// DefaultArenaTypes are the workspace-arena types whose handout methods
// (Take, Raw, RawVecs) are pool sources, named "pkgpath.TypeName".
var DefaultArenaTypes = []string{
	"repro/internal/sparse.Workspace",
}

// arenaHandoutMethods are the method names through which an arena lends out
// its buffers.
var arenaHandoutMethods = map[string]bool{"Take": true, "Raw": true, "RawVecs": true}

// parLoopPkg and parLoopFuncs name the parallel loop drivers whose closure
// arguments run concurrently on multiple goroutines.
const parLoopPkg = "repro/internal/par"

var parLoopFuncs = map[string]bool{"For": true, "ForEach": true, "ForEachCtx": true}

// NewPoolescape returns a poolescape analyzer treating the given arena
// types (in addition to sync.Pool) as pool sources.
func NewPoolescape(arenaTypes []string) *Analyzer {
	arenas := make(map[string]bool, len(arenaTypes))
	for _, t := range arenaTypes {
		arenas[t] = true
	}
	a := &Analyzer{
		Name: "poolescape",
		Doc:  "values from sync.Pool.Get or workspace arenas must not escape past their release",
	}
	a.Run = func(pass *Pass) error {
		p := &poolescapePass{Pass: pass, arenas: arenas}
		p.findAccessors()
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				p.checkFunc(fn)
			}
		}
		return nil
	}
	return a
}

type poolescapePass struct {
	*Pass
	arenas map[string]bool
	// accessors are this package's single-expression pool accessors: their
	// call sites count as pool sources and their own return is exempt.
	accessors map[types.Object]bool
}

// typeKey renders a (possibly pointer-wrapped) named type as
// "pkgpath.Name", or "" for anything else.
func typeKey(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// isPoolSource reports whether call yields a pooled value: sync.Pool.Get,
// an arena handout method, or a call to a local accessor.
func (p *poolescapePass) isPoolSource(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			obj := sel.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Get" {
				return true
			}
			if arenaHandoutMethods[obj.Name()] && p.arenas[typeKey(sel.Recv())] {
				return true
			}
		}
		if obj := p.Info.Uses[fun.Sel]; obj != nil && p.accessors[obj] {
			return true
		}
	case *ast.Ident:
		if obj := p.Info.Uses[fun]; obj != nil && p.accessors[obj] {
			return true
		}
	}
	return false
}

// sourceExpr unwraps a type assertion and reports whether e is a pool
// source call.
func (p *poolescapePass) sourceExpr(e ast.Expr) bool {
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := e.(*ast.CallExpr)
	return ok && p.isPoolSource(call)
}

// findAccessors records functions whose entire body is `return <source>`
// (type assertion allowed): sanctioned wrappers like getWS.
func (p *poolescapePass) findAccessors() {
	p.accessors = make(map[types.Object]bool)
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || len(fn.Body.List) != 1 {
				continue
			}
			ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 || !p.sourceExpr(ret.Results[0]) {
				continue
			}
			if obj := p.Info.Defs[fn.Name]; obj != nil {
				p.accessors[obj] = true
			}
		}
	}
}

// isArenaMethod reports whether fn is a method on one of the arena types —
// the arena handing out its own buffers is the design, not an escape.
func (p *poolescapePass) isArenaMethod(fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	tv, ok := p.Info.Types[fn.Recv.List[0].Type]
	return ok && p.arenas[typeKey(tv.Type)]
}

// checkFunc tracks pooled locals in fn and reports escapes.
func (p *poolescapePass) checkFunc(fn *ast.FuncDecl) {
	if p.isArenaMethod(fn) {
		return
	}
	// Collect locals initialised straight from a pool source.
	tracked := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if !p.sourceExpr(rhs) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := p.Info.Defs[id]; obj != nil {
					tracked[obj] = true
				} else if obj := p.Info.Uses[id]; obj != nil {
					tracked[obj] = true
				}
			}
		}
		return true
	})
	accessor := false
	if obj := p.Info.Defs[fn.Name]; obj != nil && p.accessors[obj] {
		accessor = true
	}
	usesTracked := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && tracked[p.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ReturnStmt:
			if accessor {
				return true
			}
			for _, res := range stmt.Results {
				// Returning the raw source expression (not through a local)
				// is the accessor pattern handled above; returning a tracked
				// local leaks the loan.
				if id, ok := res.(*ast.Ident); ok && tracked[p.Info.Uses[id]] {
					p.Reportf(res.Pos(), "pooled value %s is returned; it must be released to its pool before %s exits", id.Name, fn.Name.Name)
				}
			}
		case *ast.AssignStmt:
			if len(stmt.Lhs) != len(stmt.Rhs) {
				return true
			}
			for i, rhs := range stmt.Rhs {
				id, ok := rhs.(*ast.Ident)
				if !ok || !tracked[p.Info.Uses[id]] {
					continue
				}
				if p.escapingLHS(stmt.Lhs[i]) {
					p.Reportf(rhs.Pos(), "pooled value %s is stored in %s, outliving its release; keep pooled values on the stack", id.Name, describeLHS(stmt.Lhs[i]))
				}
			}
		case *ast.SendStmt:
			if id, ok := stmt.Value.(*ast.Ident); ok && tracked[p.Info.Uses[id]] {
				p.Reportf(stmt.Value.Pos(), "pooled value %s is sent on a channel; the receiver outlives the release", id.Name)
			}
		case *ast.GoStmt:
			if usesTracked(stmt.Call) {
				p.Reportf(stmt.Pos(), "pooled value captured by a goroutine that may outlive its release; Get inside the goroutine instead")
			}
			return false
		case *ast.CallExpr:
			if !p.isParLoop(stmt) {
				return true
			}
			for _, arg := range stmt.Args {
				fl, ok := arg.(*ast.FuncLit)
				if !ok || !p.capturesTracked(fl, tracked) {
					continue
				}
				p.Reportf(fl.Pos(), "pooled value captured by a parallel loop closure; the workers race on one arena — give each worker its own (Get inside the closure)")
			}
		}
		return true
	})
}

// capturesTracked reports whether fl references a tracked pooled value it
// did not obtain itself: a worker borrowing its own arena inside the
// closure is the sanctioned per-worker pattern, only captures of the
// enclosing frame's loan are an escape.
func (p *poolescapePass) capturesTracked(fl *ast.FuncLit, tracked map[types.Object]bool) bool {
	local := make(map[types.Object]bool)
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && tracked[obj] && !local[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isParLoop reports whether call invokes one of the internal/par loop
// drivers, whose closure arguments fan out across goroutines.
func (p *poolescapePass) isParLoop(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !parLoopFuncs[sel.Sel.Name] {
		return false
	}
	obj := p.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == parLoopPkg
}

// escapingLHS reports whether assigning to lhs stores the value beyond the
// function frame: a field, an element, or a package-level variable.
func (p *poolescapePass) escapingLHS(lhs ast.Expr) bool {
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.Ident:
		obj := p.Info.Uses[l]
		if obj == nil {
			obj = p.Info.Defs[l]
		}
		// A package-level variable escapes; locals are fine.
		return obj != nil && obj.Parent() == p.Pkg.Scope()
	}
	return false
}

// describeLHS names the escape destination for the diagnostic.
func describeLHS(lhs ast.Expr) string {
	switch lhs.(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a container element"
	case *ast.StarExpr:
		return "a pointee"
	default:
		return "a package-level variable"
	}
}
