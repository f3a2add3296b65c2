// Package linttest is the fixture harness for the determinism lint suite —
// a small, offline analogue of golang.org/x/tools' analysistest. A fixture
// is a directory of Go files annotated with trailing `// want "regex"`
// comments; Check type-checks the fixture against the repo's real
// dependencies (export data located by `go list -export`), runs the
// analyzers through lint.Run, and fails the test on any mismatch between
// reported findings and want annotations — in either direction.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"prestigebft/internal/lint"
	"prestigebft/internal/lint/analysis"
)

// RepoRoot walks up from the working directory to the enclosing go.mod.
func RepoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found above the test working directory")
		}
		dir = parent
	}
}

var (
	expOnce sync.Once
	expMap  map[string]string
	expErr  error
)

// exportData builds, once per test binary, the import-path → export-file
// map for every package a fixture may import, by asking the go command.
// This is the same information the vet driver receives in its unit config.
func exportData(t *testing.T) map[string]string {
	t.Helper()
	expOnce.Do(func() {
		cmd := exec.Command("go", "list", "-export", "-deps",
			"-f", "{{if .Export}}{{.ImportPath}}={{.Export}}{{end}}",
			"time", "math/rand",
			"prestigebft/internal/types")
		cmd.Dir = RepoRoot(t)
		out, err := cmd.Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				expErr = fmt.Errorf("go list -export: %v\n%s", err, ee.Stderr)
			} else {
				expErr = fmt.Errorf("go list -export: %v", err)
			}
			return
		}
		expMap = make(map[string]string)
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(strings.TrimSpace(line), "="); ok {
				expMap[path] = file
			}
		}
	})
	if expErr != nil {
		t.Fatal(expErr)
	}
	return expMap
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// want is one expected-diagnostic annotation.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Check runs analyzers over the fixture directory, parsed as a single
// package with import path pkgPath, and verifies findings against the
// fixture's `// want` annotations. pkgPath matters: the deterministic-set
// analyzers only fire on paths under internal/lint/detset's prefixes.
func Check(t *testing.T, dir, pkgPath string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, filepath.Join(dir, e.Name()))
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}

	exports := exportData(t)
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (add it to linttest's go list set)", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return gc.Import(path)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	pkg, err := (&types.Config{Importer: imp}).Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("typechecking fixture %s: %v", dir, err)
	}

	findings, err := lint.Run(fset, files, pkg, info, analyzers, false)
	if err != nil {
		t.Fatal(err)
	}

	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				posn := fset.Position(c.Pos())
				matched := false
				for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", posn, expr, err)
					}
					wants = append(wants, &want{file: posn.Filename, line: posn.Line, re: re})
					matched = true
				}
				if !matched {
					t.Fatalf("%s: want comment carries no quoted regexp", posn)
				}
			}
		}
	}

finding:
	for _, f := range findings {
		for _, w := range wants {
			if !w.used && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.used = true
				continue finding
			}
		}
		t.Errorf("unexpected finding: %s", f)
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}
