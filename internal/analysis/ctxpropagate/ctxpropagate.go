// Package ctxpropagate enforces the cancellation contract: every
// long-running layer threads a caller-supplied context.Context, and fresh
// root contexts are minted only at the process boundary (package main,
// tests). A context.Background()/context.TODO() inside the library
// swallows cancellation for every caller above it.
package ctxpropagate

import (
	"go/ast"
	"go/types"
	"strings"

	"sddict/internal/analysis"
)

// Analyzer is the context-propagation invariant checker.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpropagate",
	Doc:  "require caller-supplied contexts in the long-running packages; context.Background only in main and tests",
	Run:  run,
}

// scope lists the long-running library packages (the layers that thread
// contexts). Analysistest fixture packages are always in scope.
var scope = map[string]bool{
	"sddict/internal/core":       true,
	"sddict/internal/atpg":       true,
	"sddict/internal/sim":        true,
	"sddict/internal/diagnose":   true,
	"sddict/internal/experiment": true,
	"sddict/internal/resp":       true,
}

func inScope(path string) bool {
	return scope[path] || !strings.HasPrefix(path, "sddict")
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) || pass.Pkg.Name() == "main" {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkRootContext(pass, n)
			case *ast.FuncDecl:
				checkCtxSignature(pass, n)
				checkExportedCallsCtx(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkRootContext flags every context.Background() or context.TODO()
// call in library code.
func checkRootContext(pass *analysis.Pass, call *ast.CallExpr) {
	for _, name := range [...]string{"Background", "TODO"} {
		if analysis.IsPkgFunc(pass.TypesInfo, call, "context", name) {
			pass.Reportf(call.Pos(), "context.%s in library code swallows cancellation; accept and forward the caller's context", name)
			return
		}
	}
}

// checkCtxSignature enforces the *Ctx naming contract: an exported FooCtx
// takes a context.Context first.
func checkCtxSignature(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || !strings.HasSuffix(fd.Name.Name, "Ctx") {
		return
	}
	params := fd.Type.Params
	if params != nil && len(params.List) > 0 {
		if first := pass.TypesInfo.Types[params.List[0].Type].Type; first != nil && isContextType(first) {
			return
		}
	}
	pass.Reportf(fd.Name.Pos(), "exported %s does not take a context.Context as its first parameter; the Ctx suffix promises one", fd.Name.Name)
}

// checkExportedCallsCtx flags exported context-free functions that call
// into cancellable (*Ctx) APIs: they sit above a long-running layer but
// cannot forward cancellation.
func checkExportedCallsCtx(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Ctx") {
		return
	}
	if acceptsContext(pass, fd) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeName(call)
		if !strings.HasSuffix(callee, "Ctx") || callee == "Ctx" {
			return true
		}
		pass.Reportf(call.Pos(), "exported %s calls %s but accepts no context.Context; long-running layers must thread the caller's context", fd.Name.Name, callee)
		return true
	})
}

func acceptsContext(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if t := pass.TypesInfo.Types[field.Type].Type; t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
