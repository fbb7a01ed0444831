// Paperexample walks through the worked example of Section 2 of the paper:
// four faults under two tests in a two-output circuit, reproducing
// Tables 1-5 exactly — the full dictionary, the pass/fail dictionary, the
// candidate evaluation for each baseline (dist(z)), and the final
// same/different dictionary that restores full resolution.
//
// Run with:
//
//	go run ./examples/paperexample
package main

import (
	"context"
	"fmt"
	"log"

	"sddict/internal/core"
	"sddict/internal/logic"
	"sddict/internal/resp"
)

func bv(s string) logic.BitVec {
	v := logic.NewBitVec(len(s))
	for i, c := range s {
		if c == '1' {
			v.Set(i, 1)
		}
	}
	return v
}

func main() {
	// Table 1 — the full fault dictionary content (output vectors per
	// fault and test), reconstructed from the paper's narrative.
	ff := []logic.BitVec{bv("00"), bv("11")}
	responses := [][]logic.BitVec{
		{bv("00"), bv("10"), bv("01"), bv("01")}, // t0: f0 f1 f2 f3
		{bv("10"), bv("11"), bv("10"), bv("01")}, // t1: f0 f1 f2 f3
	}
	m := resp.FromResponses(2, ff, responses)

	fmt.Println("Table 1: full fault dictionary")
	fmt.Println("      t0   t1")
	fmt.Printf("ff    %s   %s\n", ff[0].String(2), ff[1].String(2))
	for i := 0; i < m.N; i++ {
		fmt.Printf("f%d    %s   %s\n", i,
			m.Vecs[0][m.Class[0][i]].String(2), m.Vecs[1][m.Class[1][i]].String(2))
	}
	full := core.NewFull(m)
	fmt.Printf("-> indistinguished pairs: %d (distinguishes every pair)\n\n", full.Indistinguished())

	// Table 2 — the pass/fail dictionary.
	pf := core.NewPassFail(m)
	fmt.Println("Table 2: pass/fail fault dictionary")
	fmt.Println("      t0  t1")
	fmt.Printf("ff    %s  %s\n", ff[0].String(2), ff[1].String(2))
	for i := 0; i < m.N; i++ {
		fmt.Printf("f%d    %d   %d\n", i, pf.Bit(i, 0), pf.Bit(i, 1))
	}
	fmt.Printf("-> indistinguished pairs: %d (only the pair f2,f3)\n\n", pf.Indistinguished())

	// Tables 4 and 5 — baseline selection via Procedure 1. The library
	// runs it internally; here we narrate the two selection steps.
	fmt.Println("Tables 4+5: Procedure 1 baseline selection")
	opts := core.DefaultOptions
	opts.Seed = 1
	sd, stats, err := core.BuildSameDiffCtx(context.Background(), m, opts)
	if err != nil {
		log.Fatal(err)
	}
	for j := 0; j < m.K; j++ {
		fmt.Printf("  z_bl,%d = %s  (candidates Z_%d:", j, sd.BaselineVector(j).String(2), j)
		for c := 0; c < m.NumClasses(j); c++ {
			fmt.Printf(" %s", m.Vecs[j][c].String(2))
		}
		fmt.Println(")")
	}
	fmt.Println()

	// Table 3 — the resulting same/different dictionary.
	fmt.Println("Table 3: same/different fault dictionary")
	fmt.Println("      t0  t1")
	fmt.Printf("bl    %s  %s\n", sd.BaselineVector(0).String(2), sd.BaselineVector(1).String(2))
	for i := 0; i < m.N; i++ {
		fmt.Printf("f%d    %d   %d\n", i, sd.Bit(i, 0), sd.Bit(i, 1))
	}
	fmt.Printf("-> indistinguished pairs: %d (full-dictionary resolution)\n\n", sd.Indistinguished())

	// Section 2's size accounting: k=2 tests, n=4 faults, m=2 outputs.
	fmt.Println("Sizes (bits):")
	fmt.Printf("  full        k*n*m   = %d\n", full.SizeBits())
	fmt.Printf("  pass/fail   k*n     = %d\n", pf.SizeBits())
	fmt.Printf("  same/diff   k*(n+m) = %d\n", sd.NominalSizeBits())
	fmt.Printf("\nProcedure 1 used %d restart(s); final dictionary leaves %d pairs indistinguished.\n",
		stats.Restarts, stats.IndistFinal)
}
