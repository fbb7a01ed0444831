// Package boundedalloc flags allocations sized by untrusted input: a
// `make([]T, n)` or `bytes.Buffer.Grow(n)` where n flows from a decoded
// integer (encoding/binary, strconv) that was never compared against a
// bound. The dictionary reader consumes attacker-shapeable files; a
// 64-bit count read straight into make() turns a short header into an
// OOM kill. internal/core.ReadCompiled's explicit `n > limit` check is
// the pattern this analyzer makes mandatory.
//
// The taint analysis is intra-procedural and lexical: a variable
// assigned from a source is tainted; arithmetic propagates taint; a
// comparison mentioning the variable (an explicit bound check) or a
// constant mask/mod clears it. Cross-package flow rides the facts
// layer: a function returning a tainted value exports an UntrustedFact,
// and its call sites treat that result as a source.
package boundedalloc

import (
	"bytes"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"sort"

	"sddict/internal/analysis"
)

// UntrustedFact marks a function whose results (by index) carry a
// decoded integer that the function itself never bounded.
type UntrustedFact struct {
	Results []int
}

// AFact marks UntrustedFact as a fact type.
func (*UntrustedFact) AFact() {}

// Analyzer is the bounded-allocation checker.
var Analyzer = &analysis.Analyzer{
	Name:      "boundedalloc",
	Doc:       "allocations sized by decoded input must be bounded before make/Grow",
	Run:       run,
	FactTypes: []analysis.Fact{(*UntrustedFact)(nil)},
}

func run(pass *analysis.Pass) error {
	exportFacts(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w := newWalker(pass, true)
				w.stmts(fd.Body.List)
			}
		}
	}
	return nil
}

// walker carries the taint state through one function body in source
// order. taint maps a variable to a human description of its source.
type walker struct {
	pass   *analysis.Pass
	report bool
	taint  map[types.Object]string
	// returned collects, per result index, whether any return statement
	// handed back a tainted value (used by the fact-export phase).
	returned map[int]bool
}

func newWalker(pass *analysis.Pass, report bool) *walker {
	return &walker{pass: pass, report: report, taint: map[types.Object]string{}, returned: map[int]bool{}}
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.checkSinks(s)
		w.assign(s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		w.checkSinks(s)
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					w.assign(lhs, vs.Values)
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		// A comparison against the tainted value is the bound check
		// this analyzer asks for; it dominates the branch bodies and —
		// lexically — everything after.
		w.sanitize(s.Cond)
		w.stmts(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.sanitize(s.Cond)
		}
		w.stmts(s.Body.List)
	case *ast.RangeStmt:
		w.checkSinks(s.X)
		w.stmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.sanitize(s.Tag)
		}
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				for _, e := range c.List {
					w.sanitize(e)
				}
				w.stmts(c.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				w.stmts(c.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if c, ok := cc.(*ast.CommClause); ok {
				w.stmts(c.Body)
			}
		}
	case *ast.ReturnStmt:
		w.checkSinks(s)
		for i, res := range s.Results {
			if _, tainted := w.taintedExpr(res); tainted {
				w.returned[i] = true
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.GoStmt:
		w.checkSinks(s)
	case *ast.DeferStmt:
		w.checkSinks(s)
	case *ast.ExprStmt:
		w.checkSinks(s)
	case *ast.SendStmt:
		w.checkSinks(s)
	}
}

// assign propagates taint through an assignment: single-value form
// taints each LHS from its RHS; the multi-result form (n, err := src())
// taints the LHS positions named by the source or fact.
func (w *walker) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			if desc, results := w.taintedCall(call); results != nil {
				for _, i := range results {
					if i < len(lhs) {
						w.set(lhs[i], desc)
					}
				}
			}
		}
		return
	}
	for i := range lhs {
		if i >= len(rhs) {
			break
		}
		if desc, tainted := w.taintedExpr(rhs[i]); tainted {
			w.set(lhs[i], desc)
		} else {
			w.clear(lhs[i])
		}
	}
}

func (w *walker) set(e ast.Expr, desc string) {
	if obj := w.lhsObj(e); obj != nil {
		w.taint[obj] = desc
	}
}

func (w *walker) clear(e ast.Expr) {
	if obj := w.lhsObj(e); obj != nil {
		delete(w.taint, obj)
	}
}

func (w *walker) lhsObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return w.pass.TypesInfo.Uses[id]
}

// sanitize clears the taint of every variable that appears in a
// comparison inside e — the developer compared it against something, so
// it is considered bounded from here on.
func (w *walker) sanitize(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			for _, side := range []ast.Expr{be.X, be.Y} {
				ast.Inspect(side, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok {
						if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
							delete(w.taint, obj)
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// checkSinks reports every allocation inside n whose size argument is
// tainted right now.
func (w *walker) checkSinks(n ast.Node) {
	if !w.report {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && isBuiltin(w.pass, id, "make") && len(call.Args) >= 2 {
			// Builtin make: args after the type are len and cap.
			for _, arg := range call.Args[1:] {
				if desc, tainted := w.taintedExpr(arg); tainted {
					w.reportSink(call, arg, "make", desc)
				}
			}
		}
		if callee := analysis.CalleeFunc(w.pass.TypesInfo, call); callee != nil && callee.Name() == "Grow" &&
			callee.Pkg() != nil && callee.Pkg().Path() == "bytes" && len(call.Args) == 1 {
			if desc, tainted := w.taintedExpr(call.Args[0]); tainted {
				w.reportSink(call, call.Args[0], "Buffer.Grow", desc)
			}
		}
		return true
	})
}

func (w *walker) reportSink(call *ast.CallExpr, arg ast.Expr, sink, desc string) {
	d := analysis.Diagnostic{
		Pos: call.Pos(),
		Message: sink + " sized by `" + exprString(w.pass.Fset, arg) + "` from " + desc +
			" without a bound check",
		SuggestedFixes: []analysis.SuggestedFix{guardFix(w.pass, call, arg)},
	}
	w.pass.Report(d)
}

// guardFix inserts an explicit bound check above the statement holding
// the allocation. The limit and failure mode are starting points for
// the developer; what matters is that the comparison exists.
func guardFix(pass *analysis.Pass, call *ast.CallExpr, arg ast.Expr) analysis.SuggestedFix {
	stmt := enclosingStmt(pass, call)
	at := stmt.Pos()
	size := exprString(pass.Fset, arg)
	return analysis.SuggestedFix{
		Message: "bound " + size + " before allocating",
		Edits: []analysis.TextEdit{{
			Pos:     at,
			End:     at,
			NewText: "if " + size + " > 1<<20 {\npanic(\"allocation size exceeds bound\")\n}\n",
		}},
	}
}

// enclosingStmt climbs to the outermost statement containing n so the
// guard lands on its own line.
func enclosingStmt(pass *analysis.Pass, n ast.Node) ast.Node {
	cur := n
	for {
		parent := pass.Parent(cur)
		if parent == nil {
			return cur
		}
		switch parent.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			return cur
		}
		cur = parent
	}
}

func isBuiltin(pass *analysis.Pass, id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// taintedExpr reports whether e evaluates to a tainted integer and
// describes its source.
func (w *walker) taintedExpr(e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		desc, ok := w.taint[w.pass.TypesInfo.Uses[e]]
		return desc, ok
	case *ast.CallExpr:
		if desc, results := w.taintedCall(e); results != nil {
			for _, i := range results {
				if i == 0 {
					return desc, true
				}
			}
			return "", false
		}
		// Conversion: int(x) keeps x's taint.
		if tv, ok := w.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return w.taintedExpr(e.Args[0])
		}
		// Builtin min/max bound the value by construction.
		return "", false
	case *ast.BinaryExpr:
		switch e.Op {
		case token.AND, token.REM:
			// Masking or mod by a constant bounds the result.
			if isConst(w.pass, e.X) || isConst(w.pass, e.Y) {
				return "", false
			}
		case token.ADD, token.SUB, token.MUL, token.SHL, token.SHR, token.OR, token.XOR, token.QUO:
			// Arithmetic propagates taint.
		default:
			return "", false
		}
		if desc, ok := w.taintedExpr(e.X); ok {
			return desc, true
		}
		return w.taintedExpr(e.Y)
	case *ast.UnaryExpr:
		return w.taintedExpr(e.X)
	}
	return "", false
}

// taintedCall reports whether call is a taint source and which result
// indices are untrusted; results is nil for a non-source call.
func (w *walker) taintedCall(call *ast.CallExpr) (string, []int) {
	info := w.pass.TypesInfo
	for _, src := range [...]struct {
		pkg, name string
	}{
		{"encoding/binary", "ReadUvarint"},
		{"encoding/binary", "ReadVarint"},
		{"strconv", "Atoi"},
		{"strconv", "ParseInt"},
		{"strconv", "ParseUint"},
	} {
		if analysis.IsPkgFunc(info, call, src.pkg, src.name) {
			return shortPkg(src.pkg) + "." + src.name, []int{0}
		}
	}
	// binary.BigEndian.Uint16/32/64 and the LittleEndian twins are
	// methods, so they need the callee's package rather than IsPkgFunc.
	if callee := analysis.CalleeFunc(info, call); callee != nil && callee.Pkg() != nil {
		if callee.Pkg().Path() == "encoding/binary" &&
			(callee.Name() == "Uint16" || callee.Name() == "Uint32" || callee.Name() == "Uint64") {
			return "binary." + callee.Name(), []int{0}
		}
		var fact UntrustedFact
		if w.pass.ImportObjectFact(callee, &fact) {
			return callee.Pkg().Name() + "." + callee.Name(), fact.Results
		}
	}
	return "", nil
}

func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() != constant.Unknown
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "n"
	}
	return buf.String()
}

func shortPkg(path string) string {
	switch path {
	case "encoding/binary":
		return "binary"
	default:
		return path
	}
}

// exportFacts walks every function without reporting, to a fixed
// point, and exports an UntrustedFact for each function that returns a
// tainted value it never bounded.
func exportFacts(pass *analysis.Pass) {
	for changed := true; changed; {
		changed = false
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				w := newWalker(pass, false)
				w.stmts(fd.Body.List)
				if len(w.returned) == 0 {
					continue
				}
				var results []int
				for i := range w.returned {
					results = append(results, i)
				}
				sort.Ints(results)
				var have UntrustedFact
				pass.ImportObjectFact(fn, &have)
				if len(results) > len(have.Results) {
					pass.ExportObjectFact(fn, &UntrustedFact{Results: results})
					changed = true
				}
			}
		}
	}
}
