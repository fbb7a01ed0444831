// Benchfile demonstrates the interchange path for real netlists: a circuit
// is written to ISCAS-89 .bench format, read back, exercised as a
// sequential machine with the cycle-accurate simulator, and then taken
// through the full-scan dictionary pipeline — the exact flow for running
// this library on the genuine ISCAS-89 benchmark files.
//
// Run with:
//
//	go run ./examples/benchfile
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"sddict/internal/atpg"
	"sddict/internal/bench"
	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/resp"
	"sddict/internal/sim"
)

func main() {
	// 1. Produce a .bench file (a synthetic s27-profile circuit here;
	//    substitute any real ISCAS-89 file).
	path := filepath.Join(os.TempDir(), "sddict-example-s27.bench")
	circuit := gen.Profiles["s27"].MustGenerate(7)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := bench.Write(f, circuit); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Println("wrote", path)

	// 2. Read it back.
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	c, err := bench.Parse(f, "s27")
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parsed:", c.Stat())

	// 3. Exercise it as a sequential machine: unknown state resolves as
	//    vectors are applied.
	seq := sim.NewSequential(c)
	fmt.Println("\nsequential run from the unknown state:")
	for cycle := 0; cycle < 5; cycle++ {
		vec := make(pattern.Vector, len(c.PIs))
		for i := range vec {
			vec[i] = logic.FromBit(uint64((cycle + i) % 2))
		}
		outs, err := seq.Step(vec)
		if err != nil {
			log.Fatal(err)
		}
		known := 0
		for _, v := range seq.State() {
			if v.Known() {
				known++
			}
		}
		fmt.Printf("  cycle %d: in=%s out=%v, %d/%d flip-flops known\n",
			cycle, vec, outs, known, len(c.DFFs))
	}

	// 4. Full-scan dictionary pipeline on the same netlist.
	comb := netlist.Combinationalize(c)
	col := fault.Collapse(comb)
	cfg := atpg.DefaultConfig(10)
	cfg.Seed = 1
	ctx := context.Background()
	tests, _ := atpg.GenerateDetectionCtx(ctx, comb, col.Faults, cfg)
	m, err := resp.BuildObsCtx(ctx, 0, netlist.NewScanView(comb), col.Faults, tests, nil)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultOptions
	opts.Seed = 2
	sd, st, err := core.BuildSameDiffCtx(ctx, m, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndictionary pipeline: %d faults, %d tests\n", m.N, m.K)
	fmt.Printf("  pass/fail      %5d bits, %d pairs indistinguished\n",
		core.NewPassFail(m).SizeBits(), core.NewPassFail(m).Indistinguished())
	fmt.Printf("  same/different %5d bits, %d pairs indistinguished (full floor %d)\n",
		sd.SizeBits(), st.IndistFinal, st.IndistFull)

	os.Remove(path)
}
