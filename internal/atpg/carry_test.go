package atpg

import (
	"context"
	"slices"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
)

// TestCarriedProofsMatchFreshSolves checks the SAT-proof carry rule of
// GenerateDiagnosticCtx on the s208 and s298 diagnostic rows at the
// pipeline's configuration, at the default screening budget and at one
// below some proofs' conflict counts. Only detection's SAT proofs are
// carried:
//   - every carried proof of k ≤ budget conflicts is what a fresh
//     miterSolver.detect at that budget returns: Untestable after
//     exactly k;
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
		base, st := GenerateDetectionCtx(context.Background(), comb, faults, cfg)
		satProofs := make([]Verdict, len(st.Verdicts))
		for i, p := range st.Verdicts {
			if p.Kind == SATUntestable {
				satProofs[i] = p
			}
		}
		for _, budget := range []int64{DefaultDiagConfig().SATConflictBudget, 100} {
			carried := 0
			for i, p := range satProofs {
				if p.Kind != SATUntestable {
					continue
				}
				k := p.Conflicts
				_, status, conflicts, _ := newMiterSolver(comb).detect(faults[i], budget)
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
			dcfg.SATConflictBudget = budget
			want, _, wantStats := GenerateDiagnosticCtx(context.Background(), comb, faults, base, nil, dcfg)
			got, _, gotStats := GenerateDiagnosticCtx(context.Background(), comb, faults, base, satProofs, dcfg)
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

// TestCarriedBudgetOutsMatchFreshSolves checks the budget-out carry rule
// of GenerateDiagnosticCtx. Detection on s298 and s344 runs its SAT
// fallback at a 20-conflict budget, so it stops on some faults without
// an answer: SATUnknown after c = 21 conflicts. At a screening budget B
// of c−1 and of the default:
//   - with B < c, a fresh miterSolver.detect returns Aborted after
//     exactly B+1 conflicts, the answer screening takes the verdict for;
//   - generation with every verdict carried returns the same test set
//     and the same stats as with all but the budget-outs, except
//     SATReused, which also counts the budget-outs screening took, none
//     when B ≥ c. The proofs are carried on both sides, so that screening
//     does not spend its five budget-outs on them first.
func TestCarriedBudgetOutsMatchFreshSolves(t *testing.T) {
	const detectBudget = 20
	reusedAny := false
	for _, name := range []string{"s298", "s344"} {
		comb := netlist.Combinationalize(gen.Profiles[name].MustGenerate(2))
		faults := fault.Collapse(comb).Faults
		cfg := DefaultConfig(1)
		cfg.Seed = 3
		cfg.Compact = true
		cfg.SATConflictBudget = detectBudget
		base, st := GenerateDetectionCtx(context.Background(), comb, faults, cfg)
		proofs := slices.Clone(st.Verdicts)
		n := 0
		for i, v := range proofs {
			if v.Kind == SATUnknown {
				proofs[i] = Verdict{}
				n++
			}
		}
		if n == 0 {
			t.Fatalf("%s: no SAT budget-out at %d conflicts; the test exercises nothing", name, detectBudget)
		}
		for _, budget := range []int64{detectBudget, DefaultDiagConfig().SATConflictBudget} {
			applicable := 0
			for i, v := range st.Verdicts {
				if v.Kind != SATUnknown || budget >= v.Conflicts {
					continue
				}
				applicable++
				_, status, conflicts, _ := newMiterSolver(comb).detect(faults[i], budget)
				if status != Aborted || conflicts != budget+1 {
					t.Errorf("%s budget %d: %s stopped unanswered after %d conflicts, fresh solve %v after %d",
						name, budget, faults[i].Name(comb), v.Conflicts, status, conflicts)
				}
			}
			dcfg := DefaultDiagConfig()
			dcfg.Seed = 4
			dcfg.SATConflictBudget = budget
			want, _, wantStats := GenerateDiagnosticCtx(context.Background(), comb, faults, base, proofs, dcfg)
			got, _, gotStats := GenerateDiagnosticCtx(context.Background(), comb, faults, base, st.Verdicts, dcfg)
			reused := gotStats.SATReused - wantStats.SATReused
			if reused > applicable {
				t.Errorf("%s budget %d: %d budget-outs reused, but only %d apply at this budget", name, budget, reused, applicable)
			}
			reusedAny = reusedAny || reused > 0
			t.Logf("%s budget %d: %d of %d applicable budget-outs reused, %d SAT calls", name, budget, reused, applicable, gotStats.SATCalls)
			gotStats.SATReused = wantStats.SATReused
			if gotStats != wantStats {
				t.Errorf("%s budget %d: stats with verdicts %+v, without %+v", name, budget, gotStats, wantStats)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%s budget %d: %d tests with verdicts, %d without", name, budget, got.Len(), want.Len())
			}
			for j := range got.Vecs {
				if got.Vecs[j].Key() != want.Vecs[j].Key() {
					t.Fatalf("%s budget %d: test %d differs with verdicts", name, budget, j)
				}
			}
		}
	}
	if !reusedAny {
		t.Fatal("no budget-out was reused; the test exercised too little")
	}
}

// TestPodemProofsHoldUnderSAT certifies the PODEM proofs detection
// carries into redundancy screening: on s208, s298, s344 and s953 at
// seeds 1–3, with the pipeline's diagnostic (1-detection, compacted) and
// 10-detection configurations, a fresh miterSolver.detect on the
// detection miter of every fault detection marked PodemUntestable, at the
// solver's default budget, must prove it redundant, never find a test.
func TestPodemProofsHoldUnderSAT(t *testing.T) {
	checked := 0
	for _, name := range []string{"s208", "s298", "s344", "s953"} {
		for seed := int64(1); seed <= 3; seed++ {
			comb := netlist.Combinationalize(gen.Profiles[name].MustGenerate(seed + 1))
			faults := fault.Collapse(comb).Faults
			for _, n := range []int{1, 10} {
				cfg := DefaultConfig(n)
				cfg.Seed = seed + 2
				cfg.Compact = n == 1
				_, st := GenerateDetectionCtx(context.Background(), comb, faults, cfg)
				for i, p := range st.Verdicts {
					if p.Kind != PodemUntestable {
						continue
					}
					_, status, conflicts, _ := newMiterSolver(comb).detect(faults[i], 0)
					if status != Untestable {
						t.Errorf("%s seed %d n=%d: PODEM proved %s redundant, a fresh solve returns %v after %d conflicts",
							name, seed, n, faults[i].Name(comb), status, conflicts)
					}
					checked++
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d PODEM proofs checked; the oracle exercised too little", checked)
	}
	t.Logf("%d PODEM proofs confirmed by SAT", checked)
}
