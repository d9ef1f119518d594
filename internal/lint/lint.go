// Package lint is Switchboard's project-specific static-analysis suite
// ("sblint"). It implements four analyzers the Go compiler and stock vet
// cannot express for this codebase:
//
//   - determinism: the replay/experiment packages must be pure functions of
//     their seeds — wall-clock reads, the global math/rand generator, and
//     map-iteration-order-dependent appends are forbidden there.
//   - lockdiscipline: struct fields annotated "// guarded by <mu>" may only
//     be touched by methods that hold that mutex on a dominating path.
//   - floatcompare: ==/!= on floats in the LP/packing packages, where
//     silent NaN and tolerance bugs hide, unless guarded by a named epsilon
//     or an exact constant-zero sentinel.
//   - errorsink: error results silently discarded at statement position
//     (vet's printf-style fixed function list does not cover this).
//
// The suite is dependency-free: packages are loaded with go/parser and
// type-checked with go/types, resolving stdlib imports through the go/
// importer source importer. Findings print as
//
//	file:line:col: [analyzer] message
//
// and any finding makes `sblint ./...` exit non-zero, which is how the
// tier-1 gate (make check) consumes it.
//
// False positives are silenced in place with a justified escape hatch:
//
//	//sblint:allow <key> -- why this is safe
//
// on the offending line or the line directly above it. The determinism
// analyzer uses the key "nondeterminism"; the other analyzers use their own
// names. See DESIGN.md ("Static analysis") for the conventions and for how
// to add a new analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the canonical "file:line:col: [analyzer] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one project-specific check run over a loaded package.
type Analyzer struct {
	// Name identifies the analyzer in findings and allow directives.
	Name string
	// AllowKey is an alternate //sblint:allow key (e.g. "nondeterminism"
	// for the determinism analyzer); empty means Name only.
	AllowKey string
	// Doc is a one-line description.
	Doc string
	// Applies reports whether the analyzer runs on the package with the
	// given module-relative path ("internal/lp"). A nil Applies runs
	// everywhere.
	Applies func(relPath string) bool
	// Run emits findings for one package. Suppression via //sblint:allow
	// is handled by the runner, not by Run.
	Run func(p *Package) []Finding
	// RunGraph, when set, makes this an interprocedural analyzer: it runs
	// once over the call graph of the whole package set instead of
	// per-package (Run and Applies are ignored). Findings are still
	// subject to //sblint:allow suppression.
	RunGraph func(g *CallGraph) []Finding
}

// Analyzers returns the full suite in stable order: the four intra-
// procedural v1 analyzers, then the four interprocedural v2 analyzers
// built on the call graph.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		LockDisciplineAnalyzer(),
		FloatCompareAnalyzer(),
		ErrorSinkAnalyzer(),
		HotPathAllocAnalyzer(),
		FenceFlowAnalyzer(),
		CtxFlowAnalyzer(),
		AtomicDisciplineAnalyzer(),
	}
}

// allowDirective is one parsed //sblint:allow comment.
type allowDirective struct {
	file string
	line int
	key  string
}

var allowRe = regexp.MustCompile(`^//\s*sblint:allow\s+([a-z]+)`)

// allowSet indexes directives by (file, line, key).
type allowSet map[string]struct{}

func (s allowSet) add(file string, line int, key string) {
	s[fmt.Sprintf("%s:%d:%s", file, line, key)] = struct{}{}
}

func (s allowSet) has(file string, line int, key string) bool {
	_, ok := s[fmt.Sprintf("%s:%d:%s", file, line, key)]
	return ok
}

// collectAllows parses //sblint:allow directives from every comment in the
// package. A directive suppresses matching findings on its own line and on
// the line directly below it (so it can sit above the offending statement).
func collectAllows(p *Package) allowSet {
	s := make(allowSet)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				s.add(pos.Filename, pos.Line, m[1])
				s.add(pos.Filename, pos.Line+1, m[1])
			}
		}
	}
	return s
}

// Run applies every analyzer to every package, drops //sblint:allow-ed
// findings, and returns the rest sorted by (file, line, col, analyzer,
// message) — a total order, so CI diffs are stable
// across runs regardless of map-iteration order anywhere upstream.
//
// Interprocedural analyzers (RunGraph set) run once over the call graph of
// the whole package set; narrowing pkgs therefore narrows what they can
// see, so whole-module invocations (./...) give the strongest guarantees.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	allAllows := make(allowSet)
	for _, p := range pkgs {
		allows := collectAllows(p)
		for k := range allows {
			allAllows[k] = struct{}{}
		}
		for _, a := range analyzers {
			if a.RunGraph != nil {
				continue
			}
			if a.Applies != nil && !a.Applies(p.RelPath) {
				continue
			}
			for _, f := range a.Run(p) {
				if suppressed(allows, a, f) {
					continue
				}
				f.Analyzer = a.Name
				out = append(out, f)
			}
		}
	}
	var graph *CallGraph
	for _, a := range analyzers {
		if a.RunGraph == nil {
			continue
		}
		if graph == nil {
			graph = BuildCallGraph(pkgs)
		}
		for _, f := range a.RunGraph(graph) {
			if suppressed(allAllows, a, f) {
				continue
			}
			f.Analyzer = a.Name
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// suppressed reports whether an //sblint:allow directive covers the
// finding's line under the analyzer's name or alternate key.
func suppressed(allows allowSet, a *Analyzer, f Finding) bool {
	if allows.has(f.Pos.Filename, f.Pos.Line, a.Name) {
		return true
	}
	return a.AllowKey != "" && allows.has(f.Pos.Filename, f.Pos.Line, a.AllowKey)
}

// less is the canonical finding order: (file, line, col, analyzer, message).
func less(a, b Finding) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}

// pathIn reports whether relPath is one of the given module-relative
// package paths or a subpackage of one.
func pathIn(relPath string, roots ...string) bool {
	for _, r := range roots {
		if relPath == r || strings.HasPrefix(relPath, r+"/") {
			return true
		}
	}
	return false
}

// receiverName returns the receiver identifier and the receiver's named
// type for a method declaration ("" when absent or anonymous).
func receiverName(fd *ast.FuncDecl) (recv, typeName string) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", ""
	}
	field := fd.Recv.List[0]
	if len(field.Names) == 1 {
		recv = field.Names[0].Name
	}
	t := field.Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return recv, tt.Name
		default:
			return recv, ""
		}
	}
}
