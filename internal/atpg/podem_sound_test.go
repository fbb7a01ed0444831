package atpg

import (
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// TestPodemVsRandomSim cross-validates PODEM's Untestable verdicts against
// random-simulation ground truth: a fault detected by any random pattern
// must never be declared untestable.
func TestPodemVsRandomSim(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(4))
	col := fault.Collapse(comb)
	view := netlist.NewScanView(comb)
	s := sim.New(view)
	r := rand.New(rand.NewSource(123))
	detected := make([]bool, len(col.Faults))
	for b := 0; b < 200; b++ {
		set := pattern.NewSet(view.NumInputs())
		for i := 0; i < 64; i++ {
			set.Add(pattern.Random(r, view.NumInputs()))
		}
		batch := set.Pack()[0]
		s.Apply(&batch)
		for fi, f := range col.Faults {
			if detected[fi] {
				continue
			}
			if s.Propagate(f).Detect != 0 {
				detected[fi] = true
			}
		}
	}
	e := NewEngine(comb)
	e.BacktrackLimit = 60
	nSucc, nUnt, nAb := 0, 0, 0
	bugs := 0
	for fi, f := range col.Faults {
		_, status := e.Generate(f)
		switch status {
		case Success:
			nSucc++
		case Untestable:
			nUnt++
			if detected[fi] {
				bugs++
				if bugs < 10 {
					t.Errorf("fault %s: PODEM says untestable but random sim detects it", f.Name(comb))
				}
			}
		case Aborted:
			nAb++
		}
	}
	nDet := 0
	for _, d := range detected {
		if d {
			nDet++
		}
	}
	t.Logf("faults=%d randomDetected=%d podem: succ=%d unt=%d abort=%d bugs=%d",
		len(col.Faults), nDet, nSucc, nUnt, nAb, bugs)
}

// TestPodemUntestableMatchesExhaustive certifies detection PODEM's
// Untestable verdicts: on c17, s27 and s208, every fault the detection
// engine (default backtrack limit, deterministic and randomized) declares
// untestable must leave its detection miter's output at 0 under every
// input assignment of the output's cone, whenever that cone has at most
// maxExhaustiveInputs inputs. Every Success cube must drive the miter
// output to 1.
func TestPodemUntestableMatchesExhaustive(t *testing.T) {
	circuits := []*netlist.Circuit{
		gen.C17(),
		netlist.Combinationalize(gen.Profiles["s27"].MustGenerate(2)),
		netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(2)),
	}
	checked, skipped := 0, 0
	for _, c := range circuits {
		for _, randomized := range []bool{false, true} {
			e := NewEngine(c)
			e.BacktrackLimit = DefaultConfig(1).BacktrackLimit
			if randomized {
				e.Randomize(rand.New(rand.NewSource(1)))
			}
			for _, f := range fault.Collapse(c).Faults {
				cube, status := e.Generate(f)
				if status == Aborted {
					continue
				}
				m, err := BuildDetectionMiter(c, f)
				if err != nil {
					t.Fatal(err)
				}
				out := m.POs[0]
				if status == Success {
					if !drivesOne(m, out, cube) {
						t.Fatalf("%s: PODEM cube %s for %s does not detect it", c.Name, cube, f.Name(c))
					}
					continue
				}
				testable, ok := exhaustiveOne(m, out)
				if !ok {
					skipped++
					continue
				}
				checked++
				if testable {
					t.Fatalf("%s randomized=%v: PODEM says %s is untestable, but exhaustive simulation detects it",
						c.Name, randomized, f.Name(c))
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d Untestable verdicts checked; the oracle exercised too little", checked)
	}
	t.Logf("%d Untestable verdicts confirmed exhaustively, %d cones too wide", checked, skipped)
}
