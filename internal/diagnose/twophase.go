package diagnose

import (
	"fmt"

	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// TwoPhase implements the two-stage diagnosis flow the paper cites as the
// main consumer of compact dictionaries (refs [8], [12], [14]): a compact
// dictionary (pass/fail or same/different) first reduces the observed
// response to a small candidate set, then targeted fault simulation of only
// those candidates compares full responses, recovering full-dictionary
// resolution without ever storing the full dictionary.
type TwoPhase struct {
	dict   *core.Compiled
	faults []fault.Fault
	view   *netlist.ScanView
	tests  *pattern.Set
}

// NewTwoPhase builds a two-phase diagnoser over the compiled dictionary
// dict, whose rows are the given faults, for the circuit (combinational
// full-scan form) and its test set.
func NewTwoPhase(dict *core.Compiled, faults []fault.Fault, c *netlist.Circuit, tests *pattern.Set) *TwoPhase {
	if len(faults) != len(dict.Rows) {
		panic(fmt.Sprintf("diagnose: %d faults != %d dictionary rows", len(faults), len(dict.Rows)))
	}
	return &TwoPhase{
		dict:   dict,
		faults: faults,
		view:   netlist.NewScanView(c),
		tests:  tests,
	}
}

// Result reports a two-phase diagnosis.
type Result struct {
	// Phase1 is the candidate set from the dictionary signature match
	// (exact matches; nearest rows when nothing matches exactly).
	Phase1 []int
	// Phase2 is the subset of Phase1 whose simulated full responses equal
	// the observed responses exactly.
	Phase2 []int
	// Simulated counts the faults actually fault-simulated in phase 2 —
	// the effort the dictionary saved compared to simulating all faults.
	Simulated int
}

// Diagnose runs both phases on the observed responses (one output vector
// per test). It panics when observed does not hold one vector per test.
func (tp *TwoPhase) Diagnose(observed []logic.BitVec) Result {
	var res Result
	sig, err := tp.dict.Signature(observed)
	if err != nil {
		panic("diagnose: " + err.Error())
	}
	res.Phase1 = tp.dict.Candidates(sig)
	if len(res.Phase1) == 0 {
		// Fall back to the nearest rows; take every fault at the minimum
		// distance.
		ranked := tp.dict.Rank(sig, 0)
		if len(ranked) == 0 {
			return res
		}
		min := ranked[0].Distance
		for _, c := range ranked {
			if c.Distance != min {
				break
			}
			res.Phase1 = append(res.Phase1, c.Fault)
		}
	}

	// Phase 2: simulate only the candidates and keep exact full-response
	// matches.
	res.Simulated = len(res.Phase1)
	for _, fi := range res.Phase1 {
		if tp.fullResponseMatches(tp.faults[fi], observed) {
			res.Phase2 = append(res.Phase2, fi)
		}
	}
	return res
}

// fullResponseMatches simulates one fault under the full test set,
// comparing against the observed responses test by test with early exit.
func (tp *TwoPhase) fullResponseMatches(f fault.Fault, observed []logic.BitVec) bool {
	s := sim.New(tp.view)
	numOut := tp.view.NumOutputs()
	faultyWords := make([]logic.Word, numOut)
	base := 0
	for _, batch := range tp.tests.Pack() {
		b := batch
		s.Apply(&b)
		s.GoodOutputs(faultyWords)
		eff := s.Propagate(f)
		for _, d := range eff.Diffs {
			faultyWords[d.Slot] ^= d.Bits
		}
		for p := 0; p < b.Count; p++ {
			obs := observed[base+p]
			for o := 0; o < numOut; o++ {
				if obs.Get(o) != (faultyWords[o]>>uint(p))&1 {
					return false
				}
			}
		}
		base += b.Count
	}
	return true
}
