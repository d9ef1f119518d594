package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the interprocedural layer under the v2 analyzers: a call
// graph over the loaded package set. Static calls (package-level functions,
// methods invoked through concrete receivers, generic functions and methods)
// resolve to edges; calls the front end cannot resolve statically —
// interface dispatch, func values, fields of func type — are recorded as
// "horizon" edges so analyzers can see exactly where their reasoning stops
// instead of silently assuming the best.

// CallGraph is the package-set call graph. Nodes exist for every function
// or method with a body in the loaded packages; edges point at callees,
// which may be outside the set (stdlib, unselected packages) in which case
// Edge.Node is nil.
type CallGraph struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Nodes indexes by the *generic origin* func object, so instantiated
	// calls (F[int], (*S[T]).M) resolve to the single checked body.
	Nodes map[*types.Func]*FuncNode
}

// FuncNode is one function body in the graph.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are statically resolved call sites, in source order.
	Calls []Edge
	// Horizon are dynamic call sites the graph cannot resolve, in source
	// order.
	Horizon []HorizonEdge
}

// Edge is one statically resolved call site.
type Edge struct {
	// Site is the call expression (in the caller's body).
	Site *ast.CallExpr
	// Callee is the resolved target, normalized to its generic origin.
	Callee *types.Func
	// Node is the callee's body when it is in the graph; nil for callees
	// outside the loaded set (stdlib and friends).
	Node *FuncNode
}

// HorizonEdge is one dynamic call site the graph cannot see through.
type HorizonEdge struct {
	Site *ast.CallExpr
	// Kind classifies the dispatch: "interface", "func-value".
	Kind string
	// Desc names the call target as well as it can be named
	// ("(io.Writer).Write", "func value c.onLead").
	Desc string
}

// BuildCallGraph constructs the graph over the given packages. Cross-package
// edges resolve whenever both sides were loaded in the same Load pass (the
// loader type-checks the whole module with a shared importer, so the func
// objects are identical on both sides).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Pkgs: pkgs, Nodes: make(map[*types.Func]*FuncNode)}
	if len(pkgs) > 0 {
		g.Fset = pkgs[0].Fset
	}
	// Pass 1: one node per declared body.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue // tolerate typecheck holes
				}
				g.Nodes[origin(obj)] = &FuncNode{Obj: origin(obj), Decl: fd, Pkg: p}
			}
		}
	}
	// Pass 2: resolve call sites.
	for _, n := range g.Nodes {
		g.resolveCalls(n)
	}
	return g
}

// origin maps an instantiated generic func/method to its generic form; for
// non-generic functions it is the identity.
func origin(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// resolveCalls walks one body, classifying every call expression (including
// those inside nested function literals — a FuncLit's calls belong to its
// enclosing declaration for reachability purposes).
func (g *CallGraph) resolveCalls(n *FuncNode) {
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		g.classify(n, info, call)
		return true
	})
}

// classify resolves one call expression into a static edge, a horizon edge,
// or nothing (conversions, builtins — the per-analyzer body walks handle
// those directly).
func (g *CallGraph) classify(n *FuncNode, info *types.Info, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](...) / m[T1,T2](...): unwrap the index.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fn].(type) {
		case *types.Func: // package-level function (possibly generic)
			n.addEdge(g, call, obj)
		case *types.Builtin, *types.TypeName, nil:
			// builtin or conversion: body walks see these directly
		case *types.Var: // func value
			n.Horizon = append(n.Horizon, HorizonEdge{
				Site: call, Kind: "func-value",
				Desc: "func value " + fn.Name,
			})
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				callee, _ := sel.Obj().(*types.Func)
				if callee == nil {
					return
				}
				recv := sel.Recv()
				if types.IsInterface(deref(recv)) {
					n.Horizon = append(n.Horizon, HorizonEdge{
						Site: call, Kind: "interface",
						Desc: fmt.Sprintf("(%s).%s", types.TypeString(recv, types.RelativeTo(n.Pkg.TypesPkg)), callee.Name()),
					})
					return
				}
				n.addEdge(g, call, callee)
			case types.FieldVal: // struct field of func type, called
				n.Horizon = append(n.Horizon, HorizonEdge{
					Site: call, Kind: "func-value",
					Desc: "func-typed field " + fn.Sel.Name,
				})
			case types.MethodExpr:
				if callee, ok := info.Uses[fn.Sel].(*types.Func); ok {
					n.addEdge(g, call, callee)
				}
			}
			return
		}
		// No selection: qualified identifier (pkg.F) or conversion (pkg.T).
		switch obj := info.Uses[fn.Sel].(type) {
		case *types.Func:
			n.addEdge(g, call, obj)
		case *types.Var: // imported func-typed var
			n.Horizon = append(n.Horizon, HorizonEdge{
				Site: call, Kind: "func-value",
				Desc: "func value " + fn.Sel.Name,
			})
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is inspected inline as part
		// of the enclosing declaration, so there is nothing to resolve.
	default:
		// Calls through arbitrary expressions ((m[k])(x), chan receives of
		// funcs, ...) — dynamic.
		n.Horizon = append(n.Horizon, HorizonEdge{Site: call, Kind: "func-value", Desc: "dynamic call"})
	}
}

func (n *FuncNode) addEdge(g *CallGraph, call *ast.CallExpr, callee *types.Func) {
	o := origin(callee)
	n.Calls = append(n.Calls, Edge{Site: call, Callee: o, Node: g.Nodes[o]})
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// Reachable returns the transitive closure of the graph from the given
// roots, following static edges only (horizon edges are surfaced to the
// analyzers at the node where they occur, not traversed).
func (g *CallGraph) Reachable(roots []*FuncNode) map[*FuncNode]bool {
	seen := make(map[*FuncNode]bool)
	var walk func(n *FuncNode)
	walk = func(n *FuncNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, e := range n.Calls {
			walk(e.Node)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return seen
}

// rootsWithDirective returns every FuncNode whose doc comment carries the
// given //sblint:<directive> marker, in deterministic (position) order.
func (g *CallGraph) rootsWithDirective(directive string) []*FuncNode {
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if hasDirective(n.Decl.Doc, directive) {
			roots = append(roots, n)
		}
	}
	sortNodes(g.Fset, roots)
	return roots
}

// hasDirective reports whether a comment group contains a line-comment of
// the exact form //sblint:<name> (optionally followed by text).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if directiveName(c.Text) == name {
			return true
		}
	}
	return false
}

// directiveName extracts "hotpath" from "//sblint:hotpath ..." ("" when the
// comment is not an sblint directive).
func directiveName(text string) string {
	const prefix = "//sblint:"
	if len(text) < len(prefix) || text[:len(prefix)] != prefix {
		return ""
	}
	rest := text[len(prefix):]
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case ' ', '\t', '(':
			return rest[:i]
		}
	}
	return rest
}

func sortNodes(fset *token.FileSet, nodes []*FuncNode) {
	posLess := func(a, b *FuncNode) bool {
		pa, pb := fset.Position(a.Decl.Pos()), fset.Position(b.Decl.Pos())
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Line < pb.Line
	}
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && posLess(nodes[j], nodes[j-1]); j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}
