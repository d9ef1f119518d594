package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
)

// HotPathAllocAnalyzer enforces the zero-allocation contract on annotated
// hot paths: a function whose doc comment carries //sblint:hotpath — and
// everything it transitively calls through static edges — must not
// heap-allocate. The analyzer flags:
//
//   - composite literals taken by address and map/slice literals
//   - make/new and channel/goroutine creation
//   - append growth and map-index inserts
//   - non-constant string concatenation and string<->[]byte conversions
//   - function literals (closure capture allocates)
//   - interface boxing at call arguments, returns, and assignments
//   - calls into a small list of known-allocating stdlib functions
//     (fmt.*, errors.New, strconv/strings formatters, time.After, ...)
//   - variadic calls that materialize their argument slice
//   - horizon edges (interface dispatch, func values): a dynamic call
//     cannot be proven allocation-free, so it must be justified
//
// Intentional allocations are justified in place with
//
//	//sblint:allowalloc(reason)
//
// on the offending line or the line above it; placed in a function's doc
// comment it exempts that whole body (its callees stay in the closure).
// The generic //sblint:allow hotpathalloc escape also works.
func HotPathAllocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "hotpathalloc",
		Doc:  "//sblint:hotpath closures must be heap-allocation-free (escape with //sblint:allowalloc(reason))",
		RunGraph: func(g *CallGraph) []Finding {
			return runHotPathAlloc(g)
		},
	}
}

var allowAllocRe = regexp.MustCompile(`^//\s*sblint:allowalloc\((.+)\)`)

// allocAllows indexes //sblint:allowalloc(reason) directives by file:line,
// mirroring allowSet semantics (the directive's line and the line below).
type allocAllows map[string]struct{}

func collectAllocAllows(pkgs []*Package) allocAllows {
	s := make(allocAllows)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !allowAllocRe.MatchString(c.Text) {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					s[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = struct{}{}
					s[fmt.Sprintf("%s:%d", pos.Filename, pos.Line+1)] = struct{}{}
				}
			}
		}
	}
	return s
}

func (s allocAllows) has(pos token.Position) bool {
	_, ok := s[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]
	return ok
}

// stdlibAllocators lists stdlib functions known to allocate on every (or
// nearly every) call. Callees outside this list and outside the graph are
// assumed allocation-free — the list covers the allocation surface this
// repo's hot paths can plausibly reach; extend it as closures grow.
var stdlibAllocators = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Errorf": true, "fmt.Fprintf": true, "fmt.Printf": true,
	"errors.New":   true,
	"strconv.Itoa": true, "strconv.FormatInt": true, "strconv.FormatUint": true,
	"strconv.FormatFloat": true, "strconv.Quote": true,
	"strings.ToUpper": true, "strings.ToLower": true, "strings.Join": true,
	"strings.Repeat": true, "strings.Replace": true, "strings.ReplaceAll": true,
	"strings.Split": true, "strings.Fields": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Strings": true, "sort.Ints": true,
	"time.After": true, "time.NewTimer": true, "time.NewTicker": true, "time.AfterFunc": true,
	"context.WithCancel": true, "context.WithTimeout": true,
	"context.WithDeadline": true, "context.WithValue": true,
	"context.WithoutCancel": true, "context.AfterFunc": true,
	"bytes.NewReader": true, "strings.NewReader": true,
	"bufio.NewReader": true, "bufio.NewWriter": true, "bufio.NewReadWriter": true,
}

func runHotPathAlloc(g *CallGraph) []Finding {
	roots := g.rootsWithDirective("hotpath")
	if len(roots) == 0 {
		return nil
	}
	allows := collectAllocAllows(g.Pkgs)
	closure := g.Reachable(roots)
	nodes := make([]*FuncNode, 0, len(closure))
	for n := range closure {
		nodes = append(nodes, n)
	}
	sortNodes(g.Fset, nodes)
	var out []Finding
	for _, n := range nodes {
		out = append(out, checkHotFunc(g, n, allows)...)
	}
	return out
}

// checkHotFunc flags allocation sites in one closure member. A doc-level
// //sblint:allowalloc exempts the body (the function stays in the closure:
// its callees are still checked).
func checkHotFunc(g *CallGraph, n *FuncNode, allows allocAllows) []Finding {
	if docAllowsAlloc(n.Decl.Doc) {
		return nil
	}
	w := &hotWalker{g: g, n: n, allows: allows}
	// Walk statements, tracking map-index assignment targets so m[k] = v is
	// reported as an insert rather than a read.
	ast.Inspect(n.Decl.Body, w.visit)
	// Horizon edges: dynamic dispatch cannot be verified.
	for _, h := range n.Horizon {
		w.flag(h.Site.Pos(), "dynamic call through %s cannot be proven allocation-free", h.Desc)
	}
	// Static edges into known stdlib allocators.
	for _, e := range n.Calls {
		if e.Node != nil || e.Callee.Pkg() == nil {
			continue
		}
		key := e.Callee.Pkg().Name() + "." + e.Callee.Name()
		if stdlibAllocators[key] && e.Callee.Type().(*types.Signature).Recv() == nil {
			w.flag(e.Site.Pos(), "calls %s, which allocates", key)
		}
	}
	return w.out
}

func docAllowsAlloc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if allowAllocRe.MatchString(c.Text) {
			return true
		}
	}
	return false
}

type hotWalker struct {
	g      *CallGraph
	n      *FuncNode
	allows allocAllows
	out    []Finding
}

func (w *hotWalker) flag(pos token.Pos, format string, args ...any) {
	p := w.g.Fset.Position(pos)
	if w.allows.has(p) {
		return
	}
	name := w.n.Obj.Name()
	w.out = append(w.out, Finding{
		Pos:     p,
		Message: fmt.Sprintf(format, args...) + fmt.Sprintf(" (in hot-path closure via %s)", name),
	})
}

func (w *hotWalker) info() *types.Info { return w.n.Pkg.Info }

// isConst reports whether an expression folded to a compile-time constant
// (the compiler statically allocates those — no runtime cost).
func (w *hotWalker) isConst(e ast.Expr) bool {
	tv, ok := w.info().Types[e]
	return ok && tv.Value != nil
}

func (w *hotWalker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.info().Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (w *hotWalker) visit(node ast.Node) bool {
	switch x := node.(type) {
	case *ast.GoStmt:
		w.flag(x.Pos(), "go statement allocates a goroutine")
	case *ast.FuncLit:
		w.flag(x.Pos(), "function literal allocates (closure capture)")
		return true // still check the body
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				w.flag(cl.Pos(), "&composite literal escapes to the heap")
				return true
			}
		}
	case *ast.CompositeLit:
		switch w.underlying(x).(type) {
		case *types.Map:
			w.flag(x.Pos(), "map literal allocates")
		case *types.Slice:
			w.flag(x.Pos(), "slice literal allocates")
		}
	case *ast.BinaryExpr:
		if x.Op == token.ADD && isStringType(w.typeOf(x)) && !w.isConst(x) {
			w.flag(x.Pos(), "string concatenation allocates")
			return false // don't re-flag nested concats of the same chain
		}
	case *ast.AssignStmt:
		for _, lhs := range x.Lhs {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if _, isMap := w.underlyingOf(ix.X).(*types.Map); isMap {
					w.flag(ix.Pos(), "map insert may allocate")
				}
			}
		}
		if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(w.typeOf(x.Lhs[0])) {
			w.flag(x.Pos(), "string += allocates")
		}
	case *ast.CallExpr:
		w.visitCall(x)
	case *ast.ReturnStmt:
		w.checkReturns(x)
	}
	return true
}

func (w *hotWalker) underlying(e ast.Expr) types.Type {
	if t := w.typeOf(e); t != nil {
		return t.Underlying()
	}
	return nil
}

func (w *hotWalker) underlyingOf(e ast.Expr) types.Type { return w.underlying(e) }

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (w *hotWalker) visitCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := w.info().Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				w.flag(call.Pos(), "make allocates")
			case "new":
				w.flag(call.Pos(), "new allocates")
			case "append":
				w.flag(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}
	// Conversions: string([]byte), []byte(string) copy.
	if tv, ok := w.info().Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			dst, src := tv.Type, w.typeOf(call.Args[0])
			if convAllocates(dst, src) && !w.isConst(call.Args[0]) {
				w.flag(call.Pos(), "%s conversion copies", types.TypeString(dst, nil))
			}
		}
		return
	}
	// Signature-based checks: boxing at arguments, variadic slices.
	sigT := w.typeOf(fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	w.checkCallArgs(call, sig)
}

// convAllocates reports whether a conversion from src to dst copies memory.
func convAllocates(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	d, s := dst.Underlying(), src.Underlying()
	if isStringType(dst) && isByteSlice(s) {
		return true
	}
	if isByteSlice(d) && isStringType(src) {
		return true
	}
	return false
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkCallArgs flags interface boxing of concrete arguments and variadic
// slice materialization.
func (w *hotWalker) checkCallArgs(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos {
				continue // pass-through slice, no new backing array
			}
			pt = params.At(np - 1).Type().(*types.Slice).Elem()
			if i == np-1 {
				w.flag(call.Pos(), "variadic call materializes an argument slice")
			}
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		w.checkBox(arg, pt, "argument")
	}
}

// checkBox flags a concrete, non-constant value converted to an interface.
func (w *hotWalker) checkBox(expr ast.Expr, target types.Type, what string) {
	if target == nil || !types.IsInterface(target.Underlying()) {
		return
	}
	at := w.typeOf(expr)
	if at == nil || types.IsInterface(at.Underlying()) {
		return // interface-to-interface: no box
	}
	if w.isConst(expr) || isNilExpr(w.info(), expr) {
		return
	}
	if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	if isPointerLike(at) {
		return // pointers/chans/maps/funcs fit in the iface word: no box
	}
	if st, ok := at.Underlying().(*types.Struct); ok && st.NumFields() == 0 {
		return // zero-size values box to the runtime's shared zerobase
	}
	w.flag(expr.Pos(), "%s boxes %s into %s", what,
		types.TypeString(at, types.RelativeTo(w.n.Pkg.TypesPkg)),
		types.TypeString(target, types.RelativeTo(w.n.Pkg.TypesPkg)))
}

// isPointerLike reports types whose interface representation needs no
// allocation (a single pointer word).
func isPointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	if tv.Value != nil && tv.Value.Kind() == constant.Unknown {
		return true
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return true
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	return false
}

// checkReturns flags boxing at return statements when a result type is an
// interface and the returned expression is concrete.
func (w *hotWalker) checkReturns(ret *ast.ReturnStmt) {
	sig, ok := w.n.Obj.Type().(*types.Signature)
	if !ok {
		return
	}
	results := sig.Results()
	if results.Len() != len(ret.Results) {
		return // naked return or multi-value call result: nothing boxed here
	}
	for i, e := range ret.Results {
		w.checkBox(e, results.At(i).Type(), "return value")
	}
}
