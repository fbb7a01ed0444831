package atpg

import (
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
)

// BenchmarkSolveMiter times the SAT decision procedure alone: one op
// solves a fixed list of 32 s298 pair miters at the diagnostic
// generator's default conflict budget. conflicts/op is deterministic, so
// a change to it is a change to the search, not noise.
func BenchmarkSolveMiter(b *testing.B) {
	c := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(2))
	faults := fault.Collapse(c).Faults
	var miters []*netlist.Circuit
	for i := 0; len(miters) < 32; i += len(faults) / 32 {
		m, err := BuildMiter(c, faults[i], faults[(i+7)%len(faults)])
		if err != nil {
			b.Fatal(err)
		}
		miters = append(miters, m)
	}
	budget := DefaultDiagConfig().SATConflictBudget
	var conflicts int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		conflicts = 0
		for _, m := range miters {
			_, _, k, err := solveOutputOne(m, m.POs[0], budget)
			if err != nil {
				b.Fatal(err)
			}
			conflicts += k
		}
	}
	b.ReportMetric(float64(conflicts), "conflicts/op")
}

// BenchmarkPodemGenerate times the structural engine alone: one op runs
// deterministic PODEM over every collapsed fault of the circuit on one
// reused engine. aborts and untestable are deterministic outcome counts.
func BenchmarkPodemGenerate(b *testing.B) {
	for _, name := range []string{"s208", "s298"} {
		b.Run(name, func(b *testing.B) {
			c := netlist.Combinationalize(gen.Profiles[name].MustGenerate(2))
			faults := fault.Collapse(c).Faults
			e := NewEngine(c)
			var aborts, untestable int
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				aborts, untestable = 0, 0
				for _, f := range faults {
					switch _, status := e.Generate(f); status {
					case Aborted:
						aborts++
					case Untestable:
						untestable++
					}
				}
			}
			b.ReportMetric(float64(aborts), "aborts")
			b.ReportMetric(float64(untestable), "untestable")
		})
	}
}
