// Package lint assembles the determinism lint suite: the four analyzers that
// enforce the simulator's reproducibility contract (DESIGN.md §11), plus the
// shared runner that applies //lint:allow suppression and polices the
// directives themselves. cmd/prestige-lint drives this package through the
// `go vet -vettool` protocol; the analysistest harness drives it in-process.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"prestigebft/internal/lint/analysis"
	"prestigebft/internal/lint/directive"
	"prestigebft/internal/lint/maporder"
	"prestigebft/internal/lint/msgswitch"
	"prestigebft/internal/lint/nogoroutine"
	"prestigebft/internal/lint/walltime"
)

// Analyzers returns the full determinism suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		walltime.Analyzer,
		nogoroutine.Analyzer,
		msgswitch.Analyzer,
	}
}

// Finding is one post-suppression diagnostic, resolved to a file position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// Run applies the analyzers to one type-checked package and returns the
// surviving findings, ordered by position.
//
// A diagnostic is suppressed by a `//lint:allow <analyzer> <reason>` comment
// on the diagnostic's line or the line directly above it. When
// strictDirectives is set (the full-suite driver), the directives themselves
// are audited: a malformed or reason-less allow, an allow naming an analyzer
// not in the suite, and an allow that suppresses nothing are all findings —
// so stale or unjustified suppressions cannot accumulate. Single-analyzer
// runs (unit tests) leave strictDirectives off, since an allow for a
// different analyzer is then legitimately unused.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info,
	analyzers []*analysis.Analyzer, strictDirectives bool) ([]Finding, error) {

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// fileKey → line → allow indices; one shared slice tracks usage.
	var allows []directive.Allow
	var problems []directive.Problem
	type lineKey struct {
		file string
		line int
	}
	allowAt := make(map[lineKey][]int)
	for _, f := range files {
		as, ps := directive.Allows(fset, f)
		problems = append(problems, ps...)
		for _, a := range as {
			idx := len(allows)
			allows = append(allows, a)
			allowAt[lineKey{fset.Position(a.Pos).Filename, a.Line}] = append(
				allowAt[lineKey{fset.Position(a.Pos).Filename, a.Line}], idx)
		}
	}
	used := make([]bool, len(allows))

	var findings []Finding
	for _, a := range analyzers {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
	diag:
		for _, d := range diags {
			posn := fset.Position(d.Pos)
			for _, line := range []int{posn.Line, posn.Line - 1} {
				for _, idx := range allowAt[lineKey{posn.Filename, line}] {
					if allows[idx].Analyzer == a.Name {
						used[idx] = true
						continue diag
					}
				}
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: posn, Message: d.Message})
		}
	}

	if strictDirectives {
		for _, p := range problems {
			findings = append(findings, Finding{Analyzer: "directive", Pos: fset.Position(p.Pos), Message: p.Message})
		}
		for i, a := range allows {
			switch {
			case !known[a.Analyzer]:
				findings = append(findings, Finding{Analyzer: "directive", Pos: fset.Position(a.Pos),
					Message: fmt.Sprintf("//lint:allow names unknown analyzer %q", a.Analyzer)})
			case !used[i]:
				findings = append(findings, Finding{Analyzer: "directive", Pos: fset.Position(a.Pos),
					Message: fmt.Sprintf("stale //lint:allow %s: it suppresses nothing", a.Analyzer)})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}
