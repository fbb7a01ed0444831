// Command sddlint runs this repository's invariant checkers — a
// multichecker in the style of golang.org/x/tools/go/analysis/multichecker,
// built on the stdlib-only facts-based framework in internal/analysis —
// over the module's packages. Analyzers export typed facts about
// functions while their defining package is analyzed (dependencies
// first) and consume them at call sites in importing packages, so
// cross-package reasoning like "this helper closes its argument" works
// without whole-program analysis.
//
// Analyzers (sddlint -list prints this table):
//
//	atomicwrite   artifact writes go through core.AtomicWriteFile
//	boundedalloc  allocations sized by decoded input are bounded first
//	concurrency   goroutines and sync.WaitGroup only in internal/par;
//	              no shared *rand.Rand captured by pool tasks
//	ctxpropagate  contexts threaded through the long-running layers;
//	              root contexts only in main and tests
//	determinism   seeded RNG only, duration-only time.Now, sorted
//	              map-order results in the search packages
//	errcmp        errors compared with errors.Is, not == / !=
//	errwrap       fmt.Errorf wraps error arguments with %w
//	httpserver    no timeout-less http.Server configurations
//	leakcheck     os/net handles and cancel funcs released on every
//	              return path
//	nilobs        internal/obs methods keep the nil-receiver-is-off
//	              contract; nil-safe calls need no guard
//	noprint       no fmt printing to stdout/stderr, log.*, or print
//	              built-ins in library packages
//	osexit        os.Exit/log.Fatal only in main and internal/cli
//
// Findings are suppressed in source with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the finding's line (trailing) or the line above (standalone).
//
// Usage:
//
//	sddlint [-fix] [-json|-sarif] [packages]   # default ./...
//	sddlint -list
//
// -fix applies every machine-applicable suggested fix (atomically, via
// core.AtomicWriteFile) and reports what remains. -json emits a stable
// JSON array; -sarif emits SARIF 2.1.0 for CI annotation. Exit status
// is 0 when the tree is clean, 1 when any analyzer reports a finding,
// and 2 when the packages fail to load or type-check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"sddict/internal/analysis"
	"sddict/internal/analysis/atomicwrite"
	"sddict/internal/analysis/boundedalloc"
	"sddict/internal/analysis/concurrency"
	"sddict/internal/analysis/ctxpropagate"
	"sddict/internal/analysis/determinism"
	"sddict/internal/analysis/errcmp"
	"sddict/internal/analysis/errwrap"
	"sddict/internal/analysis/httpserver"
	"sddict/internal/analysis/leakcheck"
	"sddict/internal/analysis/nilobs"
	"sddict/internal/analysis/noprint"
	"sddict/internal/analysis/osexit"
	"sddict/internal/core"
)

func analyzers() []*analysis.Analyzer {
	as := []*analysis.Analyzer{
		atomicwrite.Analyzer,
		boundedalloc.Analyzer,
		concurrency.Analyzer,
		ctxpropagate.Analyzer,
		determinism.Analyzer,
		errcmp.Analyzer,
		errwrap.Analyzer,
		httpserver.Analyzer,
		leakcheck.Analyzer,
		nilobs.Analyzer,
		noprint.Analyzer,
		osexit.Analyzer,
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	return as
}

// listAnalyzers writes the -list table; a test pins this output so the
// registered set cannot drift silently.
func listAnalyzers(w io.Writer) {
	for _, a := range analyzers() {
		fmt.Fprintf(w, "%-14s %s\n", a.Name, a.Doc)
	}
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("sddlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	fix := fs.Bool("fix", false, "apply suggested fixes to the source tree")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		listAnalyzers(stdout)
		return 0
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "sddlint: -json and -sarif are mutually exclusive")
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	as := analyzers()
	loader := analysis.NewLoader()
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "sddlint:", err)
		return 2
	}
	result, err := analysis.RunAll(loader, pkgs, as)
	if err != nil {
		fmt.Fprintln(stderr, "sddlint:", err)
		return 2
	}
	diags := result.Diagnostics

	if *fix {
		fixed, err := analysis.ApplyFixes(loader.Fset, diags, func(path string, data []byte) error {
			return core.AtomicWriteFile(path, func(w io.Writer) error {
				_, werr := w.Write(data)
				return werr
			})
		})
		if err != nil {
			fmt.Fprintln(stderr, "sddlint:", err)
			return 2
		}
		applied := 0
		for _, r := range fixed {
			applied += r.Applied
			fmt.Fprintf(stdout, "fixed %s (%d edit(s))\n", r.Path, r.Applied)
		}
		// What remains after fixing is what the next run would report;
		// keep the unfixable findings visible below.
		var rest []analysis.Diagnostic
		for _, d := range diags {
			if len(d.SuggestedFixes) == 0 {
				rest = append(rest, d)
			}
		}
		diags = rest
	}

	base, err := os.Getwd()
	if err != nil {
		base = ""
	}
	switch {
	case *jsonOut:
		if err := analysis.WriteJSON(stdout, loader.Fset, base, diags); err != nil {
			fmt.Fprintln(stderr, "sddlint:", err)
			return 2
		}
	case *sarifOut:
		if err := analysis.WriteSARIF(stdout, loader.Fset, base, as, diags); err != nil {
			fmt.Fprintln(stderr, "sddlint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: [%s] %s\n", loader.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "sddlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
