// Dictsizes studies how the three dictionary sizes scale with circuit size
// and test-set size, illustrating the paper's Section 2 argument: the
// same/different overhead k·m is negligible next to k·n whenever the
// output count m is much smaller than the fault count n, while the full
// dictionary is larger by a factor of m.
//
// Run with:
//
//	go run ./examples/dictsizes
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"sddict/internal/atpg"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/report"
	"sddict/internal/resp"
)

func main() {
	tab := report.NewTable(
		"circuit", "faults n", "outputs m", "tests k",
		"full k*n*m", "p/f k*n", "s/d k*(n+m)", "s/d overhead")

	for _, name := range []string{"s208", "s298", "s344", "s386", "s510", "s641", "s953", "s1196"} {
		seq := gen.Profiles[name].MustGenerate(5)
		comb := netlist.Combinationalize(seq)
		col := fault.Collapse(comb)
		cfg := atpg.DefaultConfig(10)
		cfg.Seed = 5
		tests, _ := atpg.GenerateDetectionCtx(context.Background(), comb, col.Faults, cfg)
		if tests.Len() == 0 {
			log.Fatalf("%s: empty test set", name)
		}
		m := resp.Matrix{N: len(col.Faults), K: tests.Len(), M: netlist.NewScanView(comb).NumOutputs()}
		overhead := float64(m.SameDiffSizeBits()-m.PassFailSizeBits()) / float64(m.PassFailSizeBits())
		tab.Addf(name, m.N, m.M, m.K,
			report.Comma(m.FullSizeBits()), report.Comma(m.PassFailSizeBits()),
			report.Comma(m.SameDiffSizeBits()), fmt.Sprintf("%.1f%%", 100*overhead))
	}
	fmt.Println("Dictionary sizes on 10-detection test sets (synthetic ISCAS-89 analogs)")
	fmt.Println()
	tab.Render(os.Stdout)
	fmt.Println()
	fmt.Println(`"s/d overhead" is the extra storage of a same/different dictionary over a
pass/fail dictionary (the stored baseline vectors, k·m bits): it equals m/n
and shrinks as circuits grow, exactly the paper's argument for why the
same/different dictionary is a drop-in replacement for pass/fail.`)
}
