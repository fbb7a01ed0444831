// Command sdd is the end-to-end pipeline driver: it takes a circuit (a
// named synthetic profile or a .bench file), collapses its stuck-at faults,
// generates a test set, builds the full, pass/fail and same/different fault
// dictionaries, and reports their sizes and diagnostic resolution.
//
// Usage:
//
//	sdd -circuit s298 [-tests diag|10det] [-seed N]
//	sdd -bench path/to/circuit.bench [-tests diag|10det]
//	sdd -list
//
// Example:
//
//	$ sdd -circuit s344 -tests 10det
//
// Ctrl-C during dictionary construction does not discard the run: the
// best-so-far dictionary is reported (and saved with -save-dict) before
// the command exits with code 130. With -checkpoint the restart state is
// persisted so a later identical invocation resumes the search.
//
// The shared observability flags (-progress, -trace-out, -metrics-out,
// -metrics-addr, -pprof) record the run without changing its outputs;
// cmd/sddstat turns the trace and metrics artifacts into a phase/
// convergence report afterwards, and -metrics-addr serves the live
// counters in OpenMetrics text format at /metrics for scraping.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"sddict/internal/bench"
	"sddict/internal/cli"
	"sddict/internal/core"
	"sddict/internal/diagnose"
	"sddict/internal/dictio"
	"sddict/internal/experiment"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/report"
)

func main() {
	cli.Main("sdd", run)
}

func run(ctx context.Context) error {
	var (
		circuit   = flag.String("circuit", "", "named synthetic circuit profile (see -list)")
		benchPath = flag.String("bench", "", "ISCAS-89 .bench netlist to load instead of a profile")
		tests     = flag.String("tests", "diag", `test-set type: "diag" or "10det"`)
		seed      = flag.Int64("seed", 1, "master random seed")
		list      = flag.Bool("list", false, "list available circuit profiles and exit")
		saveDict  = flag.String("save-dict", "", "write the compiled same/different dictionary to this file")
		publish   = flag.String("publish", "", "write a versioned, checksummed dictionary artifact (cmd/sddserve input) to this file")
		inject    = flag.Int("inject", -1, "inject the i-th collapsed fault as a defect (with -dump-responses)")
		dumpResp  = flag.String("dump-responses", "", "write the observed responses of the injected defect (cmd/diagnose input)")
		ckpt      = flag.String("checkpoint", "", "persist/resume dictionary-search state at this file")
		workers   = flag.Int("workers", 0, "worker count for fault simulation and restart search (0 = one per CPU); results are identical at any setting")
		obsFlags  = cli.RegisterObsFlags(flag.CommandLine)
	)
	flag.Parse()

	if *list {
		tab := report.NewTable("name", "PIs", "POs", "DFFs", "gates")
		for _, name := range gen.Names() {
			p := gen.Profiles[name]
			tab.Addf(name, p.PIs, p.POs, p.DFFs, p.Gates)
		}
		tab.Render(os.Stdout)
		return nil
	}

	tt := experiment.TestSetType(*tests)
	if tt != experiment.Diagnostic && tt != experiment.TenDetect {
		return cli.Usagef("unknown -tests %q (want diag or 10det)", *tests)
	}

	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer sess.Close()
	if sess.MetricsAddr != "" {
		fmt.Fprintf(os.Stderr, "sdd: serving OpenMetrics at http://%s/metrics\n", sess.MetricsAddr)
	}

	var pr *experiment.Prepared
	cfg := experiment.Config{Seed: *seed, CheckpointPath: *ckpt, Workers: *workers, Obs: sess.Observer}
	switch {
	case *benchPath != "":
		f, ferr := os.Open(*benchPath)
		if ferr != nil {
			return ferr
		}
		c, perr := bench.Parse(f, *benchPath)
		f.Close()
		if perr != nil {
			return perr
		}
		pr, err = experiment.PrepareCtx(ctx, c, tt, cfg)
	case *circuit != "":
		pr, err = experiment.PrepareProfileCtx(ctx, *circuit, tt, cfg)
	default:
		return cli.Usagef("need -circuit or -bench (or -list)")
	}
	if err != nil {
		return err
	}

	st := pr.Circuit.Stat()
	fmt.Printf("circuit %s: %d inputs, %d outputs, %d gates (full-scan view)\n",
		st.Name, st.PIs, st.POs, st.LogicGates)
	fmt.Printf("faults: %d collapsed single stuck-at\n", len(pr.Faults))
	fmt.Printf("tests: %d (%s)\n", pr.Tests.Len(), pr.GenInfo)
	fmt.Println()

	row, err := experiment.BuildRowCtx(ctx, pr, tt, cfg)
	if err != nil && row.Dict == nil {
		return err
	}
	if err != nil {
		// Checkpoint-save failure: the row is still valid, warn and go on.
		fmt.Fprintf(os.Stderr, "sdd: warning: %v\n", err)
	}
	if row.Status == experiment.RowInterrupted {
		fmt.Println("INTERRUPTED: dictionary construction stopped early; figures below are best-so-far")
		fmt.Println()
	}
	m := pr.Matrix
	full := core.NewFull(m)
	pf := core.NewPassFail(m)
	sd := row.Dict

	tab := report.NewTable("dictionary", "size (bits)", "indistinguished pairs", "avg candidates", "perfect diagnoses")
	for _, d := range []struct {
		name string
		dict *core.Dictionary
		size int64
		ind  int64
	}{
		{"full", full, row.SizeFull, row.IndFull},
		{"pass/fail", pf, row.SizePF, row.IndPF},
		{"same/different", sd, row.SizeSD, row.IndSDFinal},
	} {
		q := diagnose.EvaluateResolution(d.dict)
		tab.Addf(d.name, report.Comma(d.size), d.ind,
			fmt.Sprintf("%.2f", q.AvgCandidates), q.Perfect)
	}
	tab.Render(os.Stdout)
	fmt.Println()
	fmt.Printf("same/different construction: Procedure 1 best %d (over %d restarts), "+
		"Procedure 2 %d, fault-free-seeded %d; %d/%d baselines stored after minimization (%s bits)\n",
		row.IndSDRand, row.BuildStats.Restarts, row.IndSDRepl,
		row.BuildStats.IndistSeeded, row.StoredBaselines, row.Tests,
		report.Comma(row.SizeSDMinimized))
	if row.Status == experiment.RowInterrupted && *ckpt != "" {
		fmt.Printf("checkpoint kept at %s; rerun the same command to resume the search\n", *ckpt)
	}

	if *dumpResp != "" {
		if *inject < 0 || *inject >= len(pr.Faults) {
			return cli.Usagef("-dump-responses needs -inject in [0,%d)", len(pr.Faults))
		}
		defect := pr.Faults[*inject]
		obs, err := diagnose.ObservedResponses(pr.Circuit, []fault.Fault{defect}, pr.Tests)
		if err != nil {
			return err
		}
		err = core.AtomicWriteFile(*dumpResp, func(w io.Writer) error {
			for _, v := range obs {
				if _, werr := fmt.Fprintln(w, v.String(m.M)); werr != nil {
					return werr
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("defect #%d (%s) injected; %d observed responses written to %s\n",
			*inject, defect.Name(pr.Circuit), len(obs), *dumpResp)
	}

	if *saveDict != "" {
		compiled, err := sd.Compile()
		if err != nil {
			return err
		}
		var n int64
		err = core.AtomicWriteFile(*saveDict, func(w io.Writer) error {
			var werr error
			n, werr = compiled.WriteTo(w)
			return werr
		})
		if err != nil {
			return fmt.Errorf("writing %s: %w", *saveDict, err)
		}
		fmt.Printf("compiled same/different dictionary written to %s (%s bytes on disk, %s payload bits)\n",
			*saveDict, report.Comma(n), report.Comma(compiled.SizeBits()))
	}
	if *publish != "" {
		compiled, err := sd.Compile()
		if err != nil {
			return err
		}
		names := make([]string, len(pr.Faults))
		for i, f := range pr.Faults {
			names[i] = f.Name(pr.Circuit)
		}
		art, err := dictio.New(compiled, dictio.Header{
			Circuit: st.Name,
			TestSet: string(tt),
			Seed:    *seed,
			Faults:  names,
		})
		if err != nil {
			return err
		}
		// The write dictio.(*Artifact).Save makes, keeping its WriteStat
		// for the trace.
		pub, err := core.AtomicWriteFileStat(*publish, art.Encode)
		if err != nil {
			return fmt.Errorf("publishing %s: %w", *publish, err)
		}
		sess.Observer.Emit("publish", map[string]any{"bytes": pub.Bytes, "recycled": pub.Recycled})
		fmt.Printf("dictionary artifact published to %s (format v%d, checksum %08x)\n",
			*publish, dictio.FormatVersion, art.Checksum)
	}
	if err := sess.Finish(os.Stdout); err != nil {
		return err
	}
	if row.Status == experiment.RowInterrupted {
		return cli.ErrInterrupted
	}
	return nil
}
