package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"switchboard/internal/kvstore"
)

// FenceFlowAnalyzer guards the epoch-fencing contract: every kvstore
// mutation issued from a controller persist or handoff-ack path must go
// through the fence-arming typed wrappers (HSet, SetContext, DelContext, ...), never
// a raw Do/DoContext call that would bypass the FENCE prefix the client
// prepends to mutating commands.
//
// Entry points carry //sblint:fencepath in their doc comment. The analyzer
// walks the static call closure from each entry point and flags raw
// command-level calls (Do, DoContext) on any fence-capable client — a named
// type that also declares SetFence — when the command verb is a literal
// kvstore.Mutates names, or is not a literal at all (an unprovable write).
// As defense in depth, a raw *mutating-literal* call anywhere in a package
// that declares a fencepath entry point is flagged even outside the closure:
// such packages have standardized on the typed wrappers.
//
// The package that defines the fence-capable client is exempt — its typed
// wrappers are exactly where raw commands are supposed to live.
func FenceFlowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "fenceflow",
		Doc:  "mutations reachable from //sblint:fencepath entry points must use fence-arming typed wrappers, not raw Do(...)",
		RunGraph: func(g *CallGraph) []Finding {
			return runFenceFlow(g)
		},
	}
}

// rawCommandMethods are the command-level escape hatches on the client.
var rawCommandMethods = map[string]bool{"Do": true, "DoContext": true}

func runFenceFlow(g *CallGraph) []Finding {
	roots := g.rootsWithDirective("fencepath")
	if len(roots) == 0 {
		return nil
	}
	closure := g.Reachable(roots)

	// Packages that declare at least one fencepath entry point get the
	// package-wide raw-mutation check.
	fencePkgs := make(map[*Package]bool)
	for _, r := range roots {
		fencePkgs[r.Pkg] = true
	}

	nodes := allNodes(g)
	sortNodes(g.Fset, nodes)

	var out []Finding
	for _, n := range nodes {
		inClosure := closure[n]
		if !inClosure && !fencePkgs[n.Pkg] {
			continue
		}
		for _, e := range n.Calls {
			f, ok := checkRawCall(g, n, e, inClosure)
			if ok {
				out = append(out, f)
			}
		}
	}
	return out
}

// allNodes returns every node in the graph (unsorted).
func allNodes(g *CallGraph) []*FuncNode {
	nodes := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	return nodes
}

// checkRawCall inspects one static edge for a raw command call on a
// fence-capable client.
func checkRawCall(g *CallGraph, n *FuncNode, e Edge, inClosure bool) (Finding, bool) {
	callee := e.Callee
	if !rawCommandMethods[callee.Name()] {
		return Finding{}, false
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return Finding{}, false
	}
	recvT := deref(sig.Recv().Type())
	named, ok := recvT.(*types.Named)
	if !ok || !hasMethod(named, "SetFence") {
		return Finding{}, false
	}
	// The client's own package implements the wrappers in terms of the raw
	// calls; that is the blessed location.
	if named.Obj().Pkg() == n.Pkg.TypesPkg {
		return Finding{}, false
	}
	verb, isLit := commandVerb(e.Site, callee.Name())
	switch {
	case isLit && kvstore.Mutates(verb):
		return Finding{
			Pos: g.Fset.Position(e.Site.Pos()),
			Message: fmt.Sprintf("raw %s(%q) bypasses the fence-arming typed wrappers (reached from a //sblint:fencepath entry point: use the %s wrapper)",
				callee.Name(), verb, wrapperHint(verb)),
		}, true
	case isLit:
		return Finding{}, false // read-only verb: fencing does not apply
	case inClosure:
		return Finding{
			Pos: g.Fset.Position(e.Site.Pos()),
			Message: fmt.Sprintf("raw %s with a non-constant command on a fence-capable client cannot be proven fenced (reached from a //sblint:fencepath entry point)",
				callee.Name()),
		}, true
	}
	return Finding{}, false
}

// commandVerb extracts the command verb from a raw call's first
// command-position argument when it is a string literal.
func commandVerb(call *ast.CallExpr, method string) (verb string, isLiteral bool) {
	argIdx := 0
	if strings.HasSuffix(method, "Context") {
		argIdx = 1
	}
	if len(call.Args) <= argIdx {
		return "", false
	}
	return stringLit(call.Args[argIdx])
}

func stringLit(e ast.Expr) (string, bool) {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// wrapperHint names the typed wrapper for a mutating verb.
func wrapperHint(verb string) string {
	switch strings.ToUpper(verb) {
	case "SET":
		return "Set"
	case "DEL":
		return "DelContext"
	case "HSET":
		return "HSet/HSetContext"
	case "HCOPY":
		return "HCopyContext"
	default:
		return "typed"
	}
}

// hasMethod reports whether the named type (or its pointer receiver set)
// declares a method with the given name.
func hasMethod(named *types.Named, name string) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}
