package diagnose

import (
	"math/rand"
	"testing"

	"sddict/internal/core"
	"sddict/internal/fault"
)

// TestTwoPhaseRecoversFullResolution: phase 2 must narrow the dictionary's
// candidate set down to the injected fault's FULL-dictionary group, i.e.
// the two-phase flow achieves full-dictionary resolution with a compact
// dictionary.
func TestTwoPhaseRecoversFullResolution(t *testing.T) {
	comb, faults, tests, m := setup(t)
	fullPart := core.NewFull(m).Partition()
	opts := core.DefaultOptions
	opts.Seed = 5
	opts.Calls1 = 3
	opts.MaxRestarts = 6
	sd := buildSameDiff(t, m, opts)

	for name, d := range map[string]*core.Dictionary{
		"pass/fail":      core.NewPassFail(m),
		"same/different": sd,
	} {
		tp := NewTwoPhase(compile(t, d), faults, comb, tests)
		r := rand.New(rand.NewSource(99))
		for trial := 0; trial < 12; trial++ {
			fi := r.Intn(len(faults))
			obs, err := ObservedResponses(comb, []fault.Fault{faults[fi]}, tests)
			if err != nil {
				t.Fatal(err)
			}
			res := tp.Diagnose(obs)
			// The injected fault must survive both phases.
			if !containsInt(res.Phase2, fi) {
				t.Fatalf("%s: injected fault %d lost (phase1 %d, phase2 %d candidates)",
					name, fi, len(res.Phase1), len(res.Phase2))
			}
			// Phase 2 equals the full-dictionary group exactly.
			wantSize := 1
			if l := fullPart.Label(fi); l != core.Isolated {
				wantSize = 0
				for i := range faults {
					if fullPart.Label(i) == l {
						wantSize++
					}
				}
			}
			if len(res.Phase2) != wantSize {
				t.Fatalf("%s: phase 2 has %d candidates, full-dictionary group has %d",
					name, len(res.Phase2), wantSize)
			}
			// Phase 1 never simulates more than the dictionary group size.
			if res.Simulated != len(res.Phase1) {
				t.Fatalf("%s: simulated %d != phase1 %d", name, res.Simulated, len(res.Phase1))
			}
		}
	}
}

// TestTwoPhaseSavesSimulation: the point of the dictionary is that phase 2
// simulates far fewer faults than an effect-cause flow would; with a
// same/different dictionary the candidate sets are never larger than with
// pass/fail.
func TestTwoPhaseSavesSimulation(t *testing.T) {
	comb, faults, tests, m := setup(t)
	opts := core.DefaultOptions
	opts.Seed = 6
	opts.Calls1 = 3
	opts.MaxRestarts = 6
	sd := buildSameDiff(t, m, opts)
	tpPF := NewTwoPhase(compile(t, core.NewPassFail(m)), faults, comb, tests)
	tpSD := NewTwoPhase(compile(t, sd), faults, comb, tests)

	r := rand.New(rand.NewSource(123))
	totalPF, totalSD := 0, 0
	for trial := 0; trial < 10; trial++ {
		fi := r.Intn(len(faults))
		obs, err := ObservedResponses(comb, []fault.Fault{faults[fi]}, tests)
		if err != nil {
			t.Fatal(err)
		}
		totalPF += tpPF.Diagnose(obs).Simulated
		totalSD += tpSD.Diagnose(obs).Simulated
	}
	if totalSD > totalPF {
		t.Fatalf("same/different phase 2 simulated more faults (%d) than pass/fail (%d)",
			totalSD, totalPF)
	}
	if totalPF > 10*len(faults)/4 {
		t.Fatalf("phase 1 is not narrowing: %d simulations over 10 trials of %d faults",
			totalPF, len(faults))
	}
}

// TestTwoPhaseNonModeledDefect: with a defect that matches no row, phase 1
// falls back to nearest rows and phase 2 reports no exact match (an honest
// "not a modeled fault" outcome).
func TestTwoPhaseNonModeledDefect(t *testing.T) {
	comb, faults, tests, m := setup(t)
	tp := NewTwoPhase(compile(t, core.NewPassFail(m)), faults, comb, tests)
	r := rand.New(rand.NewSource(7))
	sawEmptyPhase2 := false
	for trial := 0; trial < 6 && !sawEmptyPhase2; trial++ {
		a, b := r.Intn(len(faults)), r.Intn(len(faults))
		if a == b {
			continue
		}
		obs, err := ObservedResponses(comb, []fault.Fault{faults[a], faults[b]}, tests)
		if err != nil {
			t.Fatal(err)
		}
		res := tp.Diagnose(obs)
		if len(res.Phase1) == 0 {
			t.Fatal("phase 1 returned nothing, not even nearest rows")
		}
		if len(res.Phase2) == 0 {
			sawEmptyPhase2 = true
		}
	}
	if !sawEmptyPhase2 {
		t.Log("every double fault happened to mimic a single fault; unusual but possible")
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
