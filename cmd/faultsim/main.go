// Command faultsim fault-simulates a test set against a circuit's collapsed
// stuck-at faults and reports coverage and per-test detection statistics.
//
// Usage:
//
//	faultsim -circuit s298 -tests tests.txt
//	faultsim -bench circuit.bench -random 256
//
// Test files hold one 0/1 vector per line over the full-scan inputs (as
// written by the atpg command); -random simulates N random vectors instead.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"

	"sddict/internal/bench"
	"sddict/internal/cli"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/par"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

func main() {
	cli.Main("faultsim", run)
}

func run(ctx context.Context) error {
	var (
		circuit   = flag.String("circuit", "", "named synthetic circuit profile")
		benchPath = flag.String("bench", "", ".bench netlist to load instead of a profile")
		testsPath = flag.String("tests", "", "test vector file (one 0/1 line per test)")
		random    = flag.Int("random", 0, "simulate this many random vectors instead of -tests")
		seed      = flag.Int64("seed", 1, "random seed")
		perTest   = flag.Bool("per-test", false, "print per-test detection counts")
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
	view := netlist.NewScanView(comb)
	col := fault.Collapse(comb)

	tests := pattern.NewSet(view.NumInputs())
	switch {
	case *testsPath != "":
		f, ferr := os.Open(*testsPath)
		if ferr != nil {
			return ferr
		}
		sc := bufio.NewScanner(f)
		line := 0
		for sc.Scan() {
			line++
			txt := sc.Text()
			if txt == "" {
				continue
			}
			v, verr := pattern.FromString(txt)
			if verr != nil {
				f.Close()
				return fmt.Errorf("%s line %d: %w", *testsPath, line, verr)
			}
			if len(v) != view.NumInputs() {
				f.Close()
				return fmt.Errorf("%s line %d: vector width %d, circuit has %d scan inputs",
					*testsPath, line, len(v), view.NumInputs())
			}
			if !v.FullySpecified() {
				f.Close()
				return fmt.Errorf("%s line %d: vector contains x; fully specified vectors required", *testsPath, line)
			}
			tests.Add(v)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return err
		}
	case *random > 0:
		r := rand.New(rand.NewSource(*seed + 2))
		for i := 0; i < *random; i++ {
			tests.Add(pattern.Random(r, view.NumInputs()))
		}
	default:
		return cli.Usagef("need -tests or -random")
	}
	if tests.Len() == 0 {
		return fmt.Errorf("empty test set")
	}

	s := sim.New(view)
	var sw sim.Sweep
	seq := par.New(1)
	counts := make([]int, len(col.Faults))
	perTestDet := make([]int, tests.Len())
	base := 0
	for _, batch := range tests.Pack() {
		b := batch
		s.Apply(&b)
		if err := sw.Run(ctx, seq, s, col.Faults); err != nil {
			return err
		}
		for fi := range col.Faults {
			for det := sw.Detect(fi); det != 0; det &= det - 1 {
				counts[fi]++
				perTestDet[base+bits.TrailingZeros64(det)]++
			}
		}
		base += b.Count
	}

	detected := 0
	totalDet := 0
	for _, n := range counts {
		if n > 0 {
			detected++
		}
		totalDet += n
	}
	fmt.Printf("circuit %s: %d collapsed faults, %d tests (%d scan inputs, %d scan outputs)\n",
		c.Name, len(col.Faults), tests.Len(), view.NumInputs(), view.NumOutputs())
	fmt.Printf("fault coverage: %d/%d = %.2f%%\n",
		detected, len(col.Faults), 100*float64(detected)/float64(len(col.Faults)))
	fmt.Printf("total detections: %d (%.1f per detected fault)\n",
		totalDet, float64(totalDet)/float64(maxInt(detected, 1)))
	if *perTest {
		for j, n := range perTestDet {
			fmt.Printf("t%-5d detects %d faults\n", j, n)
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
