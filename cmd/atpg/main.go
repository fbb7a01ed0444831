// Command atpg generates stuck-at test sets for a circuit and reports
// coverage: plain detection sets, n-detection sets, and diagnostic test
// sets whose fault pairs are distinguished by SAT on a two-fault miter.
//
// Usage:
//
//	atpg -circuit s298 [-n 10] [-diag] [-seed N] [-o tests.txt]
//	atpg -bench circuit.bench -n 1
//
// The output file holds one fully specified test vector per line, ordered
// over the full-scan inputs (primary inputs, then flip-flop pseudo inputs).
// On SIGINT/SIGTERM generation stops early and the tests earned so far are
// still reported (and written with -o); the exit code is 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"sddict/internal/atpg"
	"sddict/internal/bench"
	"sddict/internal/cli"
	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
)

func main() {
	cli.Main("atpg", run)
}

func run(ctx context.Context) error {
	var (
		circuit   = flag.String("circuit", "", "named synthetic circuit profile")
		benchPath = flag.String("bench", "", ".bench netlist to load instead of a profile")
		n         = flag.Int("n", 1, "required detections per fault")
		diag      = flag.Bool("diag", false, "extend into a diagnostic test set (pair distinguishing)")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("o", "", "write test vectors to this file")
	)
	flag.Parse()

	var (
		c   *netlist.Circuit
		err error
	)
	switch {
	case *benchPath != "":
		f, ferr := os.Open(*benchPath)
		if ferr != nil {
			return ferr
		}
		c, err = bench.Parse(f, *benchPath)
		f.Close()
	case *circuit != "":
		var p gen.Profile
		p, err = gen.Named(*circuit)
		if err == nil {
			c, err = p.Generate(*seed + 1)
		}
	default:
		return cli.Usagef("need -circuit or -bench")
	}
	if err != nil {
		return err
	}

	comb := netlist.Combinationalize(c)
	col := fault.Collapse(comb)
	fmt.Printf("circuit %s: %d faults (collapsed from %d)\n", c.Name, len(col.Faults), len(col.Universe))

	cfg := atpg.DefaultConfig(*n)
	cfg.Seed = *seed + 2
	cfg.Compact = *n == 1
	tests, st := atpg.GenerateDetectionCtx(ctx, comb, col.Faults, cfg)
	fmt.Printf("detection: %d tests (%d random, %d podem), coverage %.2f%%, %d/%d reach %d detections, %d untestable, %d aborted\n",
		tests.Len(), st.RandomTests, st.PodemTests, 100*st.Coverage(),
		st.NDetected, st.Faults, *n, st.Untestable, st.Aborted)
	interrupted := st.Interrupted

	if *diag && !interrupted {
		dcfg := atpg.DefaultDiagConfig()
		dcfg.Seed = *seed + 3
		var dst atpg.DiagStats
		tests, dst = atpg.GenerateDiagnosticCtx(ctx, comb, col.Faults, tests, dcfg)
		fmt.Printf("diagnostic: +%d random +%d SAT tests over %d rounds (%d pair attempts); "+
			"%d equivalent pairs, %d aborted, %d response-identical pairs remain\n",
			dst.RandomTests, dst.AddedTests, dst.Rounds, dst.MiterCalls,
			dst.Equivalent, dst.Aborted, dst.IndistPairs)
		interrupted = interrupted || dst.Interrupted
	}
	if interrupted {
		fmt.Println("interrupted: the test set above is partial but every kept test is valid")
	}

	if *out != "" {
		werr := core.AtomicWriteFile(*out, func(w io.Writer) error {
			for _, v := range tests.Vecs {
				if _, err := fmt.Fprintln(w, v.Key()); err != nil {
					return err
				}
			}
			return nil
		})
		if werr != nil {
			return werr
		}
		fmt.Printf("wrote %d vectors (%d inputs each) to %s\n", tests.Len(), tests.Width, *out)
	}
	if interrupted {
		return cli.ErrInterrupted
	}
	return nil
}
