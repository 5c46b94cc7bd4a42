// Package analysis is a self-contained, stdlib-only re-implementation of
// the golang.org/x/tools/go/analysis core: an Analyzer runs over one
// type-checked package (a Pass) and reports Diagnostics. The repo's
// project-specific invariant checkers (hotpath, atomicfield, lockscope,
// wirejson, slogfields — see docs/STATIC_ANALYSIS.md) are written against
// this API, so the day the real x/tools dependency is available they port
// by changing one import path. The container this repo grows in has no
// module proxy access, which is why the framework (and the go vet
// -vettool driver protocol in internal/analysis/driver) is implemented
// here from scratch on go/ast + go/types alone.
//
// Deliberate differences from x/tools:
//
//   - Facts are keyed by a stable (package path, object path) string pair
//     and serialized as JSON, not gob — both producer and consumer are
//     this suite, so no wire compatibility is needed.
//   - There is no Requires/ResultOf dependency graph between analyzers;
//     the five checkers are independent.
//   - Suppressions are first-class: a diagnostic whose position is
//     covered by an `//icpp98:allow <analyzer> <reason>` comment on the
//     same or the preceding line is dropped (the reason is mandatory, so
//     every suppression documents itself).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, suppression comments,
	// and fact files. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description of the invariant;
	// the first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives every non-suppressed diagnostic.
	report func(Diagnostic)

	// facts is the fact table being built for this package; importedFacts
	// resolves a dependency package path to its (possibly nil) table.
	facts         *FactSet
	importedFacts func(pkgPath string) *FactSet

	// allow maps file -> line -> suppressed analyzer names, built lazily
	// from the //icpp98:allow comments of each file.
	allow map[*ast.File]map[int][]string
}

// NewPass assembles a pass; the driver is the only caller.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactSet, imported func(string) *FactSet, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:      a,
		Fset:          fset,
		Files:         files,
		Pkg:           pkg,
		TypesInfo:     info,
		facts:         facts,
		importedFacts: imported,
		report:        report,
	}
}

// Reportf reports a diagnostic at pos unless an //icpp98:allow comment
// for this analyzer covers the line (or the line above it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// AllowPrefix starts a suppression comment: //icpp98:allow <analyzer> <reason>.
const AllowPrefix = "//icpp98:allow "

// Allowed reports whether an //icpp98:allow comment for this analyzer
// covers pos. Reportf consults it automatically; analyzers that derive
// facts from code shapes (e.g. lockscope's may-block classification)
// call it directly so a sanctioned operation does not poison the
// classification of every caller.
func (p *Pass) Allowed(pos token.Pos) bool { return p.suppressed(pos) }

// suppressed reports whether pos is covered by an //icpp98:allow comment
// naming this analyzer on the same line or the line immediately above.
func (p *Pass) suppressed(pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	if p.allow == nil {
		p.allow = make(map[*ast.File]map[int][]string)
	}
	f := p.fileOf(pos)
	if f == nil {
		return false
	}
	lines, ok := p.allow[f]
	if !ok {
		lines = map[int][]string{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, found := strings.CutPrefix(c.Text, AllowPrefix)
				if !found {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					continue // a reason is mandatory; an empty one does not suppress
				}
				line := p.Fset.Position(c.Pos()).Line
				lines[line] = append(lines[line], name)
			}
		}
		p.allow[f] = lines
	}
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, name := range lines[l] {
			if name == p.Analyzer.Name || name == "all" {
				return true
			}
		}
	}
	return false
}

func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Preorder walks every file of the pass in depth-first preorder, calling
// fn for each node; fn returning false prunes the subtree.
func (p *Pass) Preorder(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
