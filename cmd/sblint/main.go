// Command sblint runs Switchboard's project-specific static-analysis suite
// (internal/lint) over the module and prints findings as
//
//	file:line:col: [analyzer] message
//
// with paths relative to the module root, sorted by (file, line, col,
// analyzer, message) so output is byte-stable across runs and machines.
// It exits 0 when clean, 1 when there are findings, and 2 on load errors.
// `make check` runs it as part of the tier-1 gate; see DESIGN.md ("Static
// analysis") for the analyzer contracts, the call-graph model behind the
// interprocedural analyzers, and the annotation vocabulary
// (//sblint:allow, //sblint:hotpath, //sblint:allowalloc, ...).
//
// Usage:
//
//	sblint [-v] [-json] [packages]
//
// where packages are module-relative patterns like ./... (the default),
// ./internal/... or ./internal/lp.
//
//	-json  emit findings as a JSON array instead of text
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"switchboard/internal/lint"
)

func main() {
	verbose := flag.Bool("v", false, "print analyzer names and type-check warnings")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sblint [-v] [-json] [packages]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	root, _, err := lint.Module(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sblint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sblint:", err)
		os.Exit(2)
	}
	if *verbose {
		for _, p := range pkgs {
			for _, terr := range p.TypeErrors {
				fmt.Fprintf(os.Stderr, "sblint: typecheck %s: %v\n", p.Path, terr)
			}
		}
	}
	selected := lint.Select(pkgs, flag.Args())
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "sblint: no packages match", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}
	findings := lint.Run(selected, lint.Analyzers())
	// Module-relative paths: stable across checkouts, so they are what CI
	// diffs.
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}

	if *jsonOut {
		data, err := lint.MarshalFindings(findings)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sblint:", err)
			os.Exit(2)
		}
		fmt.Println(string(data))
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sblint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
