package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPackages are the module-relative paths whose outputs must be
// pure functions of their inputs and seeds: every experiment in
// EXPERIMENTS.md replays through them, and the paper's 15-month-replay
// methodology only holds if the same seed yields the same bytes.
var deterministicPackages = []string{
	"internal/trace",
	"internal/des",
	"internal/eval",
	"internal/forecast",
	"internal/predict",
	"internal/provision",
	"internal/allocate",
	"internal/lp",
	"internal/model",
	"internal/geo",
	"internal/records",
}

// randConstructors are the math/rand package-level functions that build
// seeded generators rather than touching the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes an explicit *Rand
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// timeForbidden are the time package functions that read the wall clock.
// (time.Sleep is deliberately not listed: it changes timing, not output.)
var timeForbidden = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// DeterminismAnalyzer forbids wall-clock reads, global math/rand use, and
// map-range-order-dependent appends in the deterministic packages. Escape
// hatch: //sblint:allow nondeterminism -- <justification>.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{
		Name:     "determinism",
		AllowKey: "nondeterminism",
		Doc:      "replay packages must be pure functions of their seeds",
		Applies:  func(rel string) bool { return pathIn(rel, deterministicPackages...) },
		Run:      runDeterminism,
	}
}

func runDeterminism(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		aliases := importAliases(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pkgPath, fn := resolvePkgFunc(p, n, aliases)
				switch {
				case pkgPath == "time" && timeForbidden[fn]:
					out = append(out, Finding{
						Pos:     p.Fset.Position(n.Pos()),
						Message: "wall-clock read time." + fn + " in a deterministic package (inject the clock or derive it from the trace)",
					})
				case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[fn] && !isTypeRef(p, n.Sel):
					out = append(out, Finding{
						Pos:     p.Fset.Position(n.Pos()),
						Message: "global math/rand." + fn + " in a deterministic package (use a seeded *rand.Rand)",
					})
				}
			case *ast.BlockStmt:
				out = append(out, mapRangeAppendsIn(p, n.List)...)
			case *ast.CaseClause:
				out = append(out, mapRangeAppendsIn(p, n.Body)...)
			case *ast.CommClause:
				out = append(out, mapRangeAppendsIn(p, n.Body)...)
			}
			return true
		})
	}
	return out
}

// importAliases maps the in-file package identifier to its import path.
func importAliases(f *ast.File) map[string]string {
	m := make(map[string]string)
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		m[name] = path
	}
	return m
}

// resolvePkgFunc resolves sel to (importPath, funcName) when its X is a
// package identifier, preferring type information (shadowing-proof) and
// falling back to the file's import table when type info is incomplete.
func resolvePkgFunc(p *Package, sel *ast.SelectorExpr, aliases map[string]string) (string, string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if obj, known := p.Info.Uses[id]; known {
		pn, isPkg := obj.(*types.PkgName)
		if !isPkg {
			return "", "" // a value named like a package, not an import
		}
		return pn.Imported().Path(), sel.Sel.Name
	}
	return aliases[id.Name], sel.Sel.Name
}

// isTypeRef reports whether the selector names a type (rand.Rand in a
// declaration) rather than a function or variable.
func isTypeRef(p *Package, sel *ast.Ident) bool {
	if obj, ok := p.Info.Uses[sel]; ok {
		_, isType := obj.(*types.TypeName)
		return isType
	}
	// No type info: fall back to the exported type names of math/rand{,/v2}.
	switch sel.Name {
	case "Rand", "Source", "Source64", "Zipf", "PCG", "ChaCha8":
		return true
	}
	return false
}

// mapRangeAppendsIn flags `for k := range m { ... x = append(x, ...) ... }`
// where m is a map and x outlives the loop: the append order then depends
// on Go's randomized map iteration. The one idiom recognized as safe is
// collect-then-sort — a sort.* / slices.Sort* call on x later in the same
// statement list. Anything else needs a sort or an explicit
// //sblint:allow nondeterminism with justification.
func mapRangeAppendsIn(p *Package, list []ast.Stmt) []Finding {
	var out []Finding
	for i, s := range list {
		rs, ok := s.(*ast.RangeStmt)
		if !ok {
			continue
		}
		tv, ok := p.Info.Types[rs.X]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			continue
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for j, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p, call) || j >= len(as.Lhs) {
					continue
				}
				target, ok := as.Lhs[j].(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.Defs[target]
				if obj == nil {
					obj = p.Info.Uses[target]
				}
				if obj == nil {
					continue
				}
				// Declared inside the loop body => the slice dies with
				// the iteration and its order cannot leak out.
				if obj.Pos() >= rs.Body.Pos() && obj.Pos() <= rs.Body.End() {
					continue
				}
				if sortedLater(p, list[i+1:], target.Name) {
					continue
				}
				out = append(out, Finding{
					Pos:     p.Fset.Position(as.Pos()),
					Message: "append to " + target.Name + " while ranging over a map: iteration order is randomized (sort keys first or sort the result)",
				})
			}
			return true
		})
	}
	return out
}

// sortedLater reports whether a later statement in the same list sorts the
// named slice (sort.Strings(x), sort.Slice(x, ...), slices.Sort(x), ...).
func sortedLater(p *Package, rest []ast.Stmt, name string) bool {
	for _, s := range rest {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		pkg, _ := resolvePkgFunc(p, sel, nil)
		if pkg != "sort" && pkg != "slices" {
			continue
		}
		// The slice may be wrapped (sort.Sort(sort.Reverse(sort.Float64Slice(x))));
		// any mention inside the call's arguments counts.
		found := false
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return !found
			})
		}
		if found {
			return true
		}
	}
	return false
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(p *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if obj := p.Info.Uses[id]; obj != nil {
		_, isBuiltin := obj.(*types.Builtin)
		return isBuiltin
	}
	return true
}
