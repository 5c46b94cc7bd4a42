// Package driver runs the icpp98lint analyzers under go vet: RunUnitchecker
// implements the (unpublished but stable) go vet -vettool protocol —
// cmd/go hands the tool one JSON vet.cfg per package, export data for
// every dependency, and .vetx fact files produced by earlier invocations
// of this same tool.
//
// It is built exclusively on the standard library (go/parser, go/types,
// go/importer); see the package comment of internal/analysis for why
// x/tools is not used.
package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"runtime"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (icpp98lint:%s)", d.Position, d.Message, d.Analyzer)
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// checkedPackage is one parsed + type-checked package ready for analysis.
type checkedPackage struct {
	path      string // resolved import path, may carry a " [pkg.test]" suffix
	fset      *token.FileSet
	files     []*ast.File
	pkg       *types.Package
	info      *types.Info
	importMap map[string]string // source import path -> resolved path
}

// gcImporter builds the export-data importer: import paths are first
// translated through importMap (test-variant and vendor remappings), then
// resolved to an export file by lookup.
func gcImporter(fset *token.FileSet, importMap map[string]string, lookup func(resolved string) (io.ReadCloser, error)) types.ImporterFrom {
	return importer.ForCompiler(fset, "gc", func(srcPath string) (io.ReadCloser, error) {
		resolved := srcPath
		if r, ok := importMap[srcPath]; ok {
			resolved = r
		}
		return lookup(resolved)
	}).(types.ImporterFrom)
}

// typecheck parses files and type-checks them as package path, resolving
// imports through imp.
func typecheck(fset *token.FileSet, path, goVersion string, files []string, imp types.Importer, importMap map[string]string) (*checkedPackage, error) {
	cp := &checkedPackage{path: path, fset: fset, importMap: importMap}
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		cp.files = append(cp.files, f)
	}
	cp.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	if goVersion != "" && goVersion != "go" {
		conf.GoVersion = goVersion
	}
	// The import path a package is checked under must be the unsuffixed
	// one: export data records "p", not "p [p.test]", and the checker
	// rejects self-imports otherwise.
	base := path
	if i := strings.Index(base, " ["); i >= 0 {
		base = base[:i]
	}
	pkg, err := conf.Check(base, fset, cp.files, cp.info)
	if err != nil {
		return nil, err
	}
	cp.pkg = pkg
	return cp, nil
}

// runAnalyzers applies every analyzer to one checked package, exporting
// facts into facts and resolving dependency facts through imported.
func runAnalyzers(cp *checkedPackage, analyzers []*analysis.Analyzer, facts *analysis.FactSet, imported func(resolved string) *analysis.FactSet) ([]Diagnostic, error) {
	var diags []Diagnostic
	resolve := func(pkgPath string) *analysis.FactSet {
		if r, ok := cp.importMap[pkgPath]; ok {
			if fs := imported(r); fs != nil {
				return fs
			}
		}
		return imported(pkgPath)
	}
	for _, a := range analyzers {
		pass := analysis.NewPass(a, cp.fset, cp.files, cp.pkg, cp.info, facts, resolve, func(d analysis.Diagnostic) {
			diags = append(diags, Diagnostic{
				Position: cp.fset.Position(d.Pos),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		})
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, cp.path, err)
		}
	}
	return diags, nil
}
