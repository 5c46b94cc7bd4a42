// Package atomicfield enforces all-or-nothing atomicity: once any site
// accesses a struct field through sync/atomic (atomic.AddInt64(&s.n, 1)),
// every other access to that field must be atomic too. A single plain
// read racing an atomic write is still a data race — and the kind the
// race detector only catches when the interleaving happens to occur.
// The repo's own convention (core.Progress, the native solver's
// incumbent bound) is atomic.Int64/Uint64 wrapper types, which make
// non-atomic access unrepresentable; this analyzer guards the remaining
// raw-field pattern and any future backsliding.
package atomicfield

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Fact marks a struct field as atomically-accessed somewhere in its
// defining package or a dependency, binding every other package to the
// same discipline.
type Fact struct{}

func (*Fact) AFact() {}

// Analyzer is the mixed atomic/plain access checker.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc: `forbid mixing sync/atomic and plain access to the same struct field

A field passed by address to a sync/atomic function at any site must be
accessed through sync/atomic at every site. Prefer the atomic.Int64
family, which makes the invariant structural.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Pass 1: find fields whose address flows into sync/atomic calls.
	// The &s.f argument expressions themselves are remembered so pass 2
	// does not flag the sanctioned sites.
	atomicFields := map[*types.Var]bool{}
	sanctioned := map[*ast.SelectorExpr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := analysis.Callee(pass.TypesInfo, call)
			if callee == nil || analysis.PkgPathOf(callee) != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op.String() != "&" {
					continue
				}
				sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fld := analysis.FieldObject(pass.TypesInfo, sel); fld != nil {
					atomicFields[fld] = true
					sanctioned[sel] = true
					if fld.Pkg() == pass.Pkg {
						pass.ExportObjectFact(fld, &Fact{})
					}
				}
			}
			return true
		})
	}

	isAtomic := func(fld *types.Var) bool {
		if atomicFields[fld] {
			return true
		}
		if fld.Pkg() != nil && fld.Pkg() != pass.Pkg {
			var fact Fact
			return pass.ImportObjectFact(fld, &fact)
		}
		return false
	}

	// Pass 2: every other selector reaching such a field is a plain
	// (racy) access. Taking the address outside an atomic call is flagged
	// too: once the pointer escapes, the discipline is unenforceable.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			fld := analysis.FieldObject(pass.TypesInfo, sel)
			if fld == nil || !isAtomic(fld) {
				return true
			}
			if wrapperType(fld.Type()) {
				return true
			}
			pass.Reportf(sel.Sel.Pos(),
				"field %s is accessed with sync/atomic elsewhere; this plain access races it (use atomic loads/stores or the atomic.%s type)",
				fieldLabel(fld), suggestWrapper(fld.Type()))
			return true
		})
	}
	return nil
}

// wrapperType reports whether t is one of the sync/atomic value types
// (atomic.Int64 etc.), whose method-only API cannot race.
func wrapperType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

func suggestWrapper(t types.Type) string {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch b.Kind() {
		case types.Int32:
			return "Int32"
		case types.Uint32:
			return "Uint32"
		case types.Uint64:
			return "Uint64"
		case types.Uintptr:
			return "Uintptr"
		}
	}
	if _, ok := t.Underlying().(*types.Pointer); ok {
		return "Pointer"
	}
	return "Int64"
}

func fieldLabel(fld *types.Var) string {
	if path := analysis.ObjectPath(fld); path != "" {
		return path // T.f form
	}
	return fld.Name()
}
