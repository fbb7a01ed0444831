// Command table6 regenerates the paper's Table 6: for every circuit and
// both test-set types (diagnostic, 10-detection) it reports the test count,
// the sizes of the full, pass/fail and same/different dictionaries, and the
// number of fault pairs each leaves indistinguished.
//
// The circuits are synthetic analogs of the ISCAS-89 benchmarks (see
// DESIGN.md); absolute values therefore differ from the paper, but the
// relations between columns are the reproduction target.
//
// Usage:
//
//	table6 [-circuits s208,s298,...] [-seed N] [-workers N] [-v]
//	table6 -checkpoint-dir ./ckpt     # survive kills: rerun to resume
//
// Rows run concurrently (-workers, default one per CPU) but render in a
// fixed order with identical values at any worker count: each row's
// pipeline is deterministic, and the sweep merges results in spec order.
//
// Ctrl-C renders the rows completed so far before exiting with code 130.
// A circuit whose pipeline fails (including an internal panic, recovered
// per row) is reported to stderr and skipped; the sweep continues.
//
// The shared observability flags (-progress, -trace-out, -metrics-out,
// -metrics-addr, -pprof) watch the sweep as it runs; cmd/sddstat
// analyzes the trace and metrics artifacts afterwards. -metrics-addr
// serves the live counters in OpenMetrics text format at /metrics, so a
// long sweep can sit behind a Prometheus scrape.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"sddict/internal/cli"
	"sddict/internal/experiment"
	"sddict/internal/gen"
	"sddict/internal/report"
)

func main() {
	cli.Main("table6", run)
}

func run(ctx context.Context) error {
	var (
		circuits = flag.String("circuits", strings.Join(gen.Table6Circuits, ","),
			"comma-separated circuit profiles to run")
		seed     = flag.Int64("seed", 1, "master random seed")
		verbose  = flag.Bool("v", false, "print per-row generation details")
		ckptDir  = flag.String("checkpoint-dir", "", "persist/resume per-row dictionary-search state in this directory")
		workers  = flag.Int("workers", 0, "sweep rows to run concurrently (0 = one per CPU); results are identical at any setting")
		obsFlags = cli.RegisterObsFlags(flag.CommandLine)
	)
	flag.Parse()

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
	}

	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer sess.Close()
	if sess.MetricsAddr != "" {
		fmt.Fprintf(os.Stderr, "table6: serving OpenMetrics at http://%s/metrics\n", sess.MetricsAddr)
	}

	tab := report.NewTable(
		"circuit", "Ttype", "|T|",
		"size full", "size p/f", "size s/d",
		"ind full", "ind p/f", "ind s/d rand", "ind s/d repl")

	interrupted := false
	failures := 0

	render := func() {
		fmt.Println("Table 6: experimental results (synthetic ISCAS-89 analogs)")
		fmt.Println()
		tab.Render(os.Stdout)
		fmt.Println()
		fmt.Println(`Columns follow the paper: "ind s/d rand" is the best Procedure 1 result over
random test orders; "ind s/d repl" is the Procedure 2 result, shown only when
it improves on Procedure 1 (the paper omits it otherwise).`)
	}

	// Independent (circuit, test-set-type) rows run concurrently; results
	// stream back in spec order, so the table and the verbose log are
	// deterministic whatever the worker count. When only one row is in
	// flight at a time, the intra-row stages parallelize instead.
	rowWorkers := *workers
	if rowWorkers <= 0 {
		rowWorkers = runtime.GOMAXPROCS(0)
	}
	innerWorkers := 1
	if rowWorkers == 1 {
		innerWorkers = 0
	}
	var specs []experiment.RowSpec
	for _, name := range strings.Split(*circuits, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		for _, tt := range []experiment.TestSetType{experiment.Diagnostic, experiment.TenDetect} {
			cfg := experiment.Config{Seed: *seed, Workers: innerWorkers}
			if *ckptDir != "" {
				cfg.CheckpointPath = filepath.Join(*ckptDir, fmt.Sprintf("%s-%s.ckpt", name, tt))
			}
			specs = append(specs, experiment.RowSpec{Circuit: name, TType: tt, Config: cfg})
		}
	}

	experiment.RunSweepObsCtx(ctx, rowWorkers, specs, sess.Observer, func(_ int, res experiment.RowResult) {
		name, tt := res.Spec.Circuit, res.Spec.TType
		row := res.Row
		if res.Err != nil && row.Dict == nil {
			if ctx.Err() != nil {
				// Cancelled before this row could produce anything.
				interrupted = true
				return
			}
			// One bad circuit (even a recovered panic) must not take down
			// the whole sweep.
			fmt.Fprintf(os.Stderr, "table6: %s/%s: %v (skipped)\n", name, tt, res.Err)
			failures++
			return
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "%s/%s: %s\n", name, tt, res.GenInfo)
		}
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "table6: %s/%s: warning: %v\n", name, tt, res.Err)
		}
		label := name
		if row.Status == experiment.RowInterrupted {
			label = name + "*" // best-so-far, not a completed search
			interrupted = true
		}
		repl := "-"
		if row.Proc2Gain {
			repl = fmt.Sprintf("%d", row.IndSDRepl)
		}
		tab.Addf(label, string(tt), row.Tests,
			report.Comma(row.SizeFull), report.Comma(row.SizePF), report.Comma(row.SizeSD),
			row.IndFull, row.IndPF, row.IndSDRand, repl)
		if *verbose {
			fmt.Fprintf(os.Stderr, "%s/%s: final=%d stored baselines=%d/%d minimized size=%s restarts=%d elapsed=%s\n",
				name, tt, row.IndSDFinal, row.StoredBaselines, row.Tests,
				report.Comma(row.SizeSDMinimized), row.BuildStats.Restarts, row.Elapsed)
		}
	})
	if ctx.Err() != nil {
		// Cancellation between row deliveries produces no per-row signal:
		// the sweep just stops handing out results. Without this check a
		// sweep interrupted at a row boundary would render as complete.
		interrupted = true
	}
	render()
	if err := sess.Finish(os.Stdout); err != nil {
		return err
	}
	if interrupted {
		fmt.Println()
		fmt.Println("interrupted: rows marked * hold the best dictionary found before the signal;")
		if *ckptDir != "" {
			fmt.Println("rerun the same command to resume from the checkpoints in " + *ckptDir)
		} else {
			fmt.Println("rerun with -checkpoint-dir to make interrupted searches resumable")
		}
		return cli.ErrInterrupted
	}
	if failures > 0 {
		return errors.New(plural(failures, "row") + " failed (see stderr)")
	}
	return nil
}

func plural(n int, noun string) string {
	if n == 1 {
		return fmt.Sprintf("%d %s", n, noun)
	}
	return fmt.Sprintf("%d %ss", n, noun)
}
