// Command prestige-lint is the determinism lint suite's vet tool: the four
// internal/lint analyzers (maporder, walltime, nogoroutine, msgswitch)
// compiled into one binary speaking the `go vet -vettool`
// unit-checker protocol. Run it through the go command, which supplies
// type-checked package units and export data:
//
//	go build -o bin/prestige-lint ./cmd/prestige-lint
//	go vet -vettool=$PWD/bin/prestige-lint ./...
//
// or simply `make lint`. The protocol (the same one x/tools' unitchecker
// implements — reimplemented here on the standard library because this repo
// builds offline) has three entry points:
//
//	prestige-lint -V=full        print a content-hashed version for go's cache
//	prestige-lint -flags         print flag metadata as JSON
//	prestige-lint <unit>.cfg     check one package unit described by the JSON config
//
// Diagnostics print one per line as `file:line:col: message (analyzer)`; the
// exit status is nonzero iff any diagnostic survives `//lint:allow`
// suppression, which is what makes `go vet -vettool` a blocking gate.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"prestigebft/internal/lint"
)

// config mirrors cmd/go/internal/work.vetConfig, the JSON document the go
// command writes for each package unit it asks the vet tool to check.
type config struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

func main() {
	versionFlag := flag.String("V", "", "print version and exit (go command protocol: -V=full)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit")
	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON instead of text")
	registerAnalyzerFlags()
	flag.Parse()

	switch {
	case *versionFlag != "":
		printVersion()
		return
	case *flagsFlag:
		printFlags()
		return
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "usage: prestige-lint [flags] <unit>.cfg\n"+
			"(driven by `go vet -vettool`; see `make lint`)\n")
		os.Exit(2)
	}
	os.Exit(checkUnit(args[0], *jsonFlag))
}

// registerAnalyzerFlags exposes each analyzer's flags as -<analyzer>.<name>.
func registerAnalyzerFlags() {
	for _, a := range lint.Analyzers() {
		prefix := a.Name + "."
		a.Flags.VisitAll(func(f *flag.Flag) {
			flag.Var(f.Value, prefix+f.Name, f.Usage)
		})
	}
}

// printVersion implements -V=full: the go command caches vet results keyed on
// this line, so it must change whenever the binary changes — hence the
// content hash of the executable itself.
func printVersion() {
	progname := filepath.Base(os.Args[0])
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sum := sha256.Sum256(data)
	fmt.Printf("%s version devel buildID=%x\n", progname, sum)
}

// printFlags implements -flags: the go command asks for this JSON to learn
// which command-line flags it may forward to the tool.
func printFlags() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var out []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		out = append(out, jsonFlag{Name: f.Name, Bool: ok && b.IsBoolFlag(), Usage: f.Usage})
	})
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(data)
}

// checkUnit type-checks one package unit from its vet config and runs the
// suite, returning the process exit code.
func checkUnit(cfgFile string, asJSON bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "prestige-lint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The go command caches and propagates the vetx (analysis facts) file.
	// This suite is fact-free, so an empty file both satisfies the protocol
	// and makes dependency-only invocations trivially cheap.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a resolved package path, not an import spec as written.
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	tc := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor(cfg.Compiler, build.Default.GOARCH),
	}
	if cfg.GoVersion != "" {
		tc.GoVersion = cfg.GoVersion
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "prestige-lint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	findings, err := lint.Run(fset, files, pkg, info, lint.Analyzers(), true)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(findings) == 0 {
		return 0
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f.String())
		}
	}
	return 2
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
