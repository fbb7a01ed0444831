// Quickstart: build a small circuit, generate tests, construct the three
// fault dictionaries and compare their size and diagnostic resolution.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"sddict/internal/atpg"
	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/netlist"
	"sddict/internal/resp"
)

func main() {
	ctx := context.Background()

	// 1. Describe a circuit with the netlist builder: a 2-bit comparator
	//    with a registered output.
	b := netlist.NewBuilder("quickstart")
	a0, a1 := b.Input("a0"), b.Input("a1")
	b0, b1 := b.Input("b0"), b.Input("b1")
	eq0 := b.Gate(netlist.Xnor, "eq0", a0, b0)
	eq1 := b.Gate(netlist.Xnor, "eq1", a1, b1)
	eq := b.Gate(netlist.And, "eq", eq0, eq1)
	gt := b.Gate(netlist.And, "gt", a1, b.Gate(netlist.Not, "nb1", b1))
	ff := b.Gate(netlist.DFF, "ff", eq) // registered equality flag
	out := b.Gate(netlist.Or, "out", gt, ff)
	b.Output(eq)
	b.Output(out)
	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("circuit:", c.Stat())

	// 2. Full-scan view: the flip-flop becomes a pseudo input/output pair,
	//    so everything downstream works on a combinational circuit.
	comb := netlist.Combinationalize(c)

	// 3. Collapse the single stuck-at fault universe.
	col := fault.Collapse(comb)
	fmt.Printf("faults: %d collapsed (from %d uncollapsed)\n", len(col.Faults), len(col.Universe))

	// 4. Generate a detection test set with the built-in ATPG.
	cfg := atpg.DefaultConfig(1)
	cfg.Seed = 42
	cfg.Compact = true
	tests, st := atpg.GenerateDetectionCtx(ctx, comb, col.Faults, cfg)
	fmt.Printf("tests: %d vectors, %.1f%% fault coverage\n", tests.Len(), 100*st.Coverage())

	// 5. Fault-simulate the full response matrix (the paper's z_{i,j}).
	m, err := resp.BuildObsCtx(ctx, 0, netlist.NewScanView(comb), col.Faults, tests, nil)
	if err != nil {
		log.Fatal(err)
	}

	// 6. Build the dictionaries. BuildSameDiffCtx runs the paper's
	//    Procedure 1 (random-order restarts) and Procedure 2.
	full := core.NewFull(m)
	pf := core.NewPassFail(m)
	opts := core.DefaultOptions
	opts.Seed = 7
	sd, stats, err := core.BuildSameDiffCtx(ctx, m, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("%-15s %12s %15s\n", "dictionary", "size (bits)", "indist. pairs")
	for _, row := range []struct {
		name string
		size int64
		ind  int64
	}{
		{"full", full.SizeBits(), full.Indistinguished()},
		{"pass/fail", pf.SizeBits(), pf.Indistinguished()},
		{"same/different", sd.NominalSizeBits(), sd.Indistinguished()},
	} {
		fmt.Printf("%-15s %12d %15d\n", row.name, row.size, row.ind)
	}
	fmt.Println()
	fmt.Printf("same/different construction: %d restarts of Procedure 1, best %d pairs;\n",
		stats.Restarts, stats.IndistProc1)
	fmt.Printf("Procedure 2 -> %d pairs; %d baselines stored after minimization\n",
		stats.IndistProc2, stats.StoredBaselines)

	// 7. Inspect the selected baselines: test j compares responses against
	//    z_bl,j instead of the fault-free output.
	for j := 0; j < m.K && j < 4; j++ {
		fmt.Printf("t%d: baseline %s (fault-free %s)\n",
			j, sd.BaselineVector(j).String(m.M), m.Vecs[j][0].String(m.M))
	}
}
