// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis core: an Analyzer runs over one
// type-checked package at a time and reports position-anchored
// diagnostics. The full x/tools module is deliberately not vendored — the
// four sddlint analyzers need only single-package syntax + type
// information, which the standard library's go/parser and go/types
// provide. The API mirrors x/tools closely enough that the analyzers
// could be ported to real analysis.Analyzer values mechanically if the
// dependency ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker. Run is called once per
// type-checked package, in import-dependency order, so facts exported
// while analyzing a package are visible when its importers are
// analyzed.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and on the
	// command line (e.g. "determinism").
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports violations through pass.Report/Reportf and may
	// export facts for downstream packages.
	Run func(*Pass) error
	// FactTypes lists the fact types Run exports, if any — documentary
	// (the in-memory store needs no registration), but kept so the
	// analyzer catalog is self-describing.
	FactTypes []Fact
}

// Diagnostic is one reported violation. SuggestedFixes, when present,
// carry machine-applicable edits (`sddlint -fix`).
type Diagnostic struct {
	Pos            token.Pos
	Analyzer       string
	Message        string
	SuggestedFixes []SuggestedFix
}

// SuggestedFix is one self-contained, machine-applicable resolution of
// a diagnostic: applying every edit resolves the finding.
type SuggestedFix struct {
	// Message describes the fix ("wrap with %w").
	Message string
	// Edits are non-overlapping replacements within a single file.
	Edits []TextEdit
}

// TextEdit replaces the source range [Pos, End) with NewText. End may
// equal Pos for a pure insertion.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// Pass carries one package's syntax and type information through an
// Analyzer.Run invocation, plus the run-wide fact store the analyzer
// exports to and imports from.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report  func(Diagnostic)
	facts   *FactStore
	parents map[ast.Node]ast.Node
}

// NewPass assembles a Pass for one package. report receives each
// diagnostic as it is emitted. facts may be nil, in which case the pass
// gets a private store (facts exported in it are invisible to other
// passes — fine for single-package tests).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore, report func(Diagnostic)) *Pass {
	if facts == nil {
		facts = NewFactStore()
	}
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		report:    report,
		facts:     facts,
		parents:   buildParents(files),
	}
}

// Reportf emits a diagnostic anchored at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Report emits d, filling in the analyzer name.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// ExportObjectFact attaches fact to obj for this pass's analyzer;
// passes of the same analyzer over importing packages can retrieve it
// with ImportObjectFact.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.ExportObjectFact(p.Analyzer.Name, obj, fact)
}

// ImportObjectFact copies the fact of fact's concrete type attached to
// obj into fact, reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.ImportObjectFact(p.Analyzer.Name, obj, fact)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.ExportPackageFact(p.Analyzer.Name, p.Pkg, fact)
}

// ImportPackageFact copies pkg's fact of fact's concrete type into
// fact, reporting whether one exists.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	return p.facts.ImportPackageFact(p.Analyzer.Name, pkg, fact)
}

// Parent returns the syntactic parent of n within the pass's files, or
// nil for roots and unknown nodes.
func (p *Pass) Parent(n ast.Node) ast.Node { return p.parents[n] }

func buildParents(files []*ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return parents
}

// CalleeFunc resolves the statically-known function or method a call
// expression invokes, or nil for indirect calls through function values,
// conversions, and built-ins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (methods never match).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// CalleeName returns the bare name of the called function — "BuildCtx"
// for both BuildCtx(...) and core.BuildCtx(...) — or "" for calls with no
// identifier callee.
func CalleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// SortDiagnostics orders diagnostics by file position for stable output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return ds[i].Message < ds[j].Message
	})
}
