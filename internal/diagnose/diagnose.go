// Package diagnose holds the simulation side of cause-effect fault
// diagnosis with the dictionaries built by internal/core: the observed
// responses of an injected defect, the two-phase flow that narrows a
// compiled dictionary's candidates by targeted fault simulation, and the
// resolution a dictionary offers over the modeled faults. Signatures,
// exact matching and ranking are core.Compiled's.
package diagnose

import (
	"errors"
	"fmt"

	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// ErrWidthMismatch marks an ObservedResponses failure where injecting
// the defect changed the circuit's scan width, so the test set no longer
// applies. Match it with errors.Is; the wrapping error carries the
// circuit name, defect list and both widths.
var ErrWidthMismatch = errors.New("injected circuit width changed")

// ObservedResponses simulates a defective circuit (the given faults all
// injected simultaneously) under the test set and returns one output vector
// per test: the tester-observed behaviour used as diagnosis input.
// A single fault models a matching stuck-at defect; several faults model a
// non-modeled (e.g. multiple or bridge-like) defect.
func ObservedResponses(c *netlist.Circuit, defect []fault.Fault, tests *pattern.Set) ([]logic.BitVec, error) {
	bad := c
	for _, f := range defect {
		var err error
		bad, err = fault.Inject(bad, f)
		if err != nil {
			return nil, err
		}
	}
	view := netlist.NewScanView(bad)
	if view.NumInputs() != tests.Width {
		names := make([]string, len(defect))
		for i, f := range defect {
			names[i] = f.Name(c)
		}
		return nil, fmt.Errorf("diagnose: %s: injecting defect %v changed the scan width: %d inputs, tests expect %d: %w",
			c.Name, names, view.NumInputs(), tests.Width, ErrWidthMismatch)
	}
	s := sim.New(view)
	out := make([]logic.BitVec, 0, tests.Len())
	words := make([]logic.Word, view.NumOutputs())
	for _, batch := range tests.Pack() {
		b := batch
		s.Apply(&b)
		s.GoodOutputs(words)
		for p := 0; p < b.Count; p++ {
			vec := logic.NewBitVec(view.NumOutputs())
			for o := range words {
				vec.Set(o, (words[o]>>uint(p))&1)
			}
			out = append(out, vec)
		}
	}
	return out, nil
}

// Quality summarizes a dictionary's diagnostic resolution over the modeled
// faults: for every fault taken as the actual defect, the exact-match
// candidate set is its indistinguishability group.
type Quality struct {
	Faults        int
	Perfect       int     // faults diagnosed to a single candidate
	MaxCandidates int     // worst-case candidate-set size
	AvgCandidates float64 // expected candidate-set size
}

// EvaluateResolution computes diagnosis quality directly from the
// dictionary's indistinguishability partition: a fault in a group of
// size s sees a candidate set of size s (each group contributes s²
// candidate sightings), a singleton fault sees exactly itself. The
// diagnose tests pin this accounting against a brute-force recount of the
// partition's group sizes.
func EvaluateResolution(d *core.Dictionary) Quality {
	p := d.Partition()
	q := Quality{Faults: p.Len()}
	if q.Faults == 0 {
		return q // no faults: zero candidates, not a phantom worst case of 1
	}
	sizes := p.GroupSizes()
	grouped := 0
	sum := 0
	max := 1
	for _, s := range sizes {
		grouped += s
		sum += s * s // each of the s faults sees a candidate set of size s
		if s > max {
			max = s
		}
	}
	q.Perfect = q.Faults - grouped
	q.MaxCandidates = max
	q.AvgCandidates = float64(q.Perfect+sum) / float64(q.Faults)
	return q
}
