package atpg

import (
	"context"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
)

// TestCarriedProofsMatchFreshSolves checks the proof-carry rule of
// GenerateDiagnosticCtx on the s208 and s298 diagnostic rows at the
// pipeline's configuration, at the default screening budget and at one
// below some proofs' conflict counts:
//   - every carried proof of k ≤ budget conflicts is what a fresh
//     solveMiter at that budget returns: Untestable after exactly k;
//   - a proof of k > budget is not what a fresh solve returns (it runs
//     out of budget), so screening must solve it again;
//   - generation with the proofs returns the same test set and the same
//     stats as without them, except SATReused, which counts the proofs
//     of k ≤ budget that screening reached.
func TestCarriedProofsMatchFreshSolves(t *testing.T) {
	reusedAny, rerunAny := false, false
	for _, name := range []string{"s208", "s298"} {
		comb := netlist.Combinationalize(gen.Profiles[name].MustGenerate(2))
		faults := fault.Collapse(comb).Faults
		cfg := DefaultConfig(1)
		cfg.Seed = 3
		cfg.Compact = true
		base, st := GenerateDetection(comb, faults, cfg)
		for _, budget := range []int64{DefaultDiagConfig().SATConflictBudget, 100} {
			carried := 0
			for i, k := range st.SATProofs {
				if k < 0 {
					continue
				}
				miter, err := BuildDetectionMiter(comb, faults[i])
				if err != nil {
					t.Fatal(err)
				}
				detects := func(v pattern.Vector) bool { return VectorDetects(comb, faults[i], v) }
				_, status, conflicts, _, err := solveMiter(miter, budget, detects)
				if err != nil {
					t.Fatal(err)
				}
				if k <= budget {
					carried++
					if status != Untestable || conflicts != k {
						t.Errorf("%s budget %d: %s carried UNSAT after %d conflicts, fresh solve %v after %d",
							name, budget, faults[i].Name(comb), k, status, conflicts)
					}
				} else {
					rerunAny = true
					if status == Untestable {
						t.Errorf("%s budget %d: %s proof of %d conflicts also holds below them; the case tests nothing",
							name, budget, faults[i].Name(comb), k)
					}
				}
			}
			dcfg := DefaultDiagConfig()
			dcfg.Seed = 4
			dcfg.MaxMiterCalls = 3000
			dcfg.SATConflictBudget = budget
			want, wantStats := GenerateDiagnostic(comb, faults, base, dcfg)
			got, gotStats := GenerateDiagnosticCtx(context.Background(), comb, faults, base, st.SATProofs, dcfg)
			// Screening skips faults a test already isolated, so it may
			// reach fewer proofs than were carried.
			if gotStats.SATReused > carried {
				t.Errorf("%s budget %d: %d proofs reused, but only %d hold at this budget", name, budget, gotStats.SATReused, carried)
			}
			reusedAny = reusedAny || gotStats.SATReused > 0
			t.Logf("%s budget %d: %d of %d applicable proofs reused, %d SAT calls", name, budget, gotStats.SATReused, carried, gotStats.SATCalls)
			gotStats.SATReused = 0
			if gotStats != wantStats {
				t.Errorf("%s budget %d: stats with proofs %+v, without %+v", name, budget, gotStats, wantStats)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%s budget %d: %d tests with proofs, %d without", name, budget, got.Len(), want.Len())
			}
			for j := range got.Vecs {
				if got.Vecs[j].Key() != want.Vecs[j].Key() {
					t.Fatalf("%s budget %d: test %d differs with proofs", name, budget, j)
				}
			}
		}
	}
	if !reusedAny || !rerunAny {
		t.Fatalf("reused any proof: %v, re-ran any: %v; the test exercised too little", reusedAny, rerunAny)
	}
}
