package atpg

import (
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
)

// BenchmarkSolveMiter times the SAT decision procedure alone: one op
// builds, encodes and solves a fixed list of 32 s298 pair miters at the
// diagnostic generator's default conflict budget, on one reused
// miterSolver, without re-simulating the models. conflicts/op is
// deterministic, so a change to it is a change to the search, not noise.
func BenchmarkSolveMiter(b *testing.B) {
	c := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(2))
	faults := fault.Collapse(c).Faults
	var pairs [][2]fault.Fault
	for i := 0; len(pairs) < 32; i += len(faults) / 32 {
		pairs = append(pairs, [2]fault.Fault{faults[i], faults[(i+7)%len(faults)]})
	}
	ms := newMiterSolver(c)
	budget := DefaultDiagConfig().SATConflictBudget
	var conflicts int64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		conflicts = 0
		for _, p := range pairs {
			_, _, k := ms.enc.solve(&ms.m, ms.build(&p[0], &p[1]), budget)
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
			b.ReportAllocs()
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
