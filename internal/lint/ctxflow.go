package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CtxFlowAnalyzer keeps span chains intact: a function that receives a
// context.Context (or an *http.Request, whose Context() carries one) is on
// a request path, and must thread that context forward. It flags:
//
//   - context.Background() / context.TODO() passed as a call argument —
//     the caller's context (deadline, trace span) is silently dropped
//   - calls to a context-less function or method when a sibling taking a
//     context exists (HSet vs HSetContext, Ping vs PingContext): the
//     sibling is there precisely so the context can flow
//
// Functions that do not receive a context are exempt — fire-and-forget
// loops and detached background work legitimately mint their own root
// contexts. Deliberate detachment inside a request path is escaped with
// //sblint:allow ctxflow -- reason.
func CtxFlowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "ctxflow",
		Doc:  "functions receiving a context must propagate it (no Background/TODO, no ctx-less calls when a Context sibling exists)",
		Run:  runCtxFlow,
	}
}

func runCtxFlow(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !receivesContext(p, fd) {
				continue
			}
			out = append(out, checkCtxBody(p, fd)...)
		}
	}
	return out
}

// receivesContext reports whether the function declares a context.Context
// or *http.Request parameter.
func receivesContext(p *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := p.Info.Types[field.Type]
		if !ok || tv.Type == nil {
			continue
		}
		if isContextType(tv.Type) || isHTTPRequestPtr(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// checkCtxBody walks one context-receiving body (including nested function
// literals, which capture the context lexically).
func checkCtxBody(p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Background()/TODO() as an argument to another call.
		for _, arg := range call.Args {
			if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
				if name := freshContextCall(p, inner); name != "" {
					out = append(out, Finding{
						Pos:     p.Fset.Position(inner.Pos()),
						Message: fmt.Sprintf("context.%s() drops the caller's context in a function that receives one", name),
					})
				}
			}
		}
		// ctx-less call with a Context-taking sibling.
		if f := contextSiblingFinding(p, fd, call); f != nil {
			out = append(out, *f)
		}
		return true
	})
	// Also catch `ctx := context.Background()` assignments that shadow the
	// incoming context path.
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			if inner, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if name := freshContextCall(p, inner); name != "" {
					out = append(out, Finding{
						Pos:     p.Fset.Position(inner.Pos()),
						Message: fmt.Sprintf("context.%s() discards the received context", name),
					})
				}
			}
		}
		return true
	})
	return out
}

// freshContextCall reports "Background" or "TODO" when the call mints a
// fresh root context, "" otherwise.
func freshContextCall(p *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}

// contextSiblingFinding flags a call to F(...) when the callee takes no
// context but a sibling named F+"Context" with a leading context parameter
// exists on the same receiver type (or in the same package scope).
func contextSiblingFinding(p *Package, fd *ast.FuncDecl, call *ast.CallExpr) *Finding {
	fun := ast.Unparen(call.Fun)
	var callee *types.Func
	switch x := fun.(type) {
	case *ast.Ident:
		callee, _ = p.Info.Uses[x].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.MethodVal {
			callee, _ = sel.Obj().(*types.Func)
		} else if fn, ok := p.Info.Uses[x.Sel].(*types.Func); ok {
			callee = fn
		}
	}
	if callee == nil || callee.Pkg() == nil {
		return nil
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || signatureTakesContext(sig) {
		return nil
	}
	sibling := lookupContextSibling(callee)
	if sibling == nil {
		return nil
	}
	return &Finding{
		Pos: p.Fset.Position(call.Pos()),
		Message: fmt.Sprintf("%s drops the context; use %s to propagate it",
			callee.Name(), sibling.Name()),
	}
}

func signatureTakesContext(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// lookupContextSibling finds a callee's Context-taking variant: a method
// named <Name>Context on the same receiver type, or a package-level
// function of that name, whose signature takes a context.
func lookupContextSibling(callee *types.Func) *types.Func {
	want := callee.Name() + "Context"
	sig := callee.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		named, ok := deref(recv.Type()).(*types.Named)
		if !ok {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() != want {
				continue
			}
			if ms, ok := m.Type().(*types.Signature); ok && signatureTakesContext(ms) {
				return m
			}
		}
		return nil
	}
	scope := callee.Pkg().Scope()
	if obj, ok := scope.Lookup(want).(*types.Func); ok {
		if fs, ok := obj.Type().(*types.Signature); ok && signatureTakesContext(fs) {
			return obj
		}
	}
	return nil
}
