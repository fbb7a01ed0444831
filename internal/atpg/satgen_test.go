package atpg

import (
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// c17Vector expands a 5-bit integer into a c17 input vector.
func c17Vector(v int) pattern.Vector {
	vec := make(pattern.Vector, 5)
	for i := range vec {
		vec[i] = logic.FromBit(uint64(v >> uint(i) & 1))
	}
	return vec
}

// TestSATDistinguishMatchesExhaustive: on c17, the SAT-based distinguisher
// (miter output = 1) must classify every fault pair exactly as exhaustive
// simulation does — distinguishable pairs get a verified test, equivalent
// pairs are proven UNSAT.
func TestSATDistinguishMatchesExhaustive(t *testing.T) {
	c := gen.C17()
	col := fault.Collapse(c)
	r := rand.New(rand.NewSource(3))

	equivalent := func(a, b fault.Fault) bool {
		for v := 0; v < 32; v++ {
			if Distinguishes(c, a, b, c17Vector(v)) {
				return false
			}
		}
		return true
	}

	for i := 0; i < len(col.Faults); i++ {
		for j := i + 1; j < len(col.Faults); j++ {
			fa, fb := col.Faults[i], col.Faults[j]
			m, err := BuildMiter(c, fa, fb)
			if err != nil {
				t.Fatal(err)
			}
			vec, status, err := SolveOutputOne(m, m.POs[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			truthEquiv := equivalent(fa, fb)
			switch status {
			case Success:
				if truthEquiv {
					t.Fatalf("SAT found a test for equivalent pair (%s, %s)", fa.Name(c), fb.Name(c))
				}
				v := vec.Clone()
				v.RandomFill(r)
				if !Distinguishes(c, fa, fb, v) {
					t.Fatalf("SAT test %s does not distinguish (%s, %s)", v, fa.Name(c), fb.Name(c))
				}
			case Untestable:
				if !truthEquiv {
					t.Fatalf("SAT proved equivalent a distinguishable pair (%s, %s)", fa.Name(c), fb.Name(c))
				}
			default:
				t.Fatalf("SAT ran out of budget on c17 pair (%s, %s)", fa.Name(c), fb.Name(c))
			}
		}
	}
}

// TestMiterDistinguish: for c17 fault pairs with different behaviour, the
// pair decision of diagnostic generation must find a distinguishing test,
// verified by simulation under a random fill of its X inputs.
func TestMiterDistinguish(t *testing.T) {
	c := gen.C17()
	col := fault.Collapse(c)
	r := rand.New(rand.NewSource(14))
	budget := DefaultDiagConfig().SATConflictBudget
	found := 0
	for i := 0; i < len(col.Faults) && found < 25; i++ {
		for j := i + 1; j < len(col.Faults) && found < 25; j++ {
			fa, fb := col.Faults[i], col.Faults[j]
			cube, status, _, mismatch, err := decidePair(c, fa, fb, budget)
			if err != nil {
				t.Fatal(err)
			}
			if mismatch {
				t.Fatalf("model for %s / %s failed re-simulation", fa.Name(c), fb.Name(c))
			}
			if status != Success {
				continue
			}
			found++
			v := cube.Clone()
			v.RandomFill(r)
			if !Distinguishes(c, fa, fb, v) {
				t.Fatalf("pair test %s does not distinguish %s / %s", v, fa.Name(c), fb.Name(c))
			}
		}
	}
	if found == 0 {
		t.Fatal("no distinguishable pair found on c17; pair decision broken")
	}
}

// TestMiterEquivalentPair: two structurally distinct but functionally
// equivalent faults must be proven equivalent (miter UNSAT).
func TestMiterEquivalentPair(t *testing.T) {
	// y = AND(a, b): a s-a-0 is equivalent to y s-a-0; the stem fault on
	// input a and the one on y exist as distinct faults.
	b := netlist.NewBuilder("eq")
	a := b.Input("a")
	bb := b.Input("b")
	y := b.Gate(netlist.And, "y", a, bb)
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fa := fault.Fault{Gate: a, Pin: fault.StemPin, Stuck: 0} // a s-a-0
	fy := fault.Fault{Gate: y, Pin: fault.StemPin, Stuck: 0} // y s-a-0
	_, status, _, _, err := decidePair(c, fa, fy, DefaultDiagConfig().SATConflictBudget)
	if err != nil {
		t.Fatal(err)
	}
	if status != Untestable {
		t.Fatalf("equivalent pair reported %v, want untestable", status)
	}
}

// TestSATAgreesWithPodemOnDetection: SAT detection miters must agree with
// PODEM wherever PODEM is definitive, must produce verified tests on
// Success, and must answer definitively at least as often as PODEM.
func TestSATAgreesWithPodemOnDetection(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(4))
	col := fault.Collapse(comb)
	e := NewEngine(comb)
	e.BacktrackLimit = 200
	r := rand.New(rand.NewSource(5))
	satDefinitive, podemDefinitive := 0, 0
	for _, f := range col.Faults {
		m, err := BuildDetectionMiter(comb, f)
		if err != nil {
			t.Fatal(err)
		}
		vec, status, err := SolveOutputOne(m, m.POs[0], 50000)
		if err != nil {
			t.Fatal(err)
		}
		if status != Aborted {
			satDefinitive++
		}
		cube, pstatus := e.Generate(f)
		if pstatus != Aborted {
			podemDefinitive++
		}
		switch status {
		case Success:
			v := vec.Clone()
			v.RandomFill(r)
			if !VectorDetects(comb, f, v) {
				t.Fatalf("SAT test for %s does not detect it", f.Name(comb))
			}
			if pstatus == Untestable {
				t.Fatalf("PODEM says untestable but SAT found a test for %s", f.Name(comb))
			}
		case Untestable:
			if pstatus == Success {
				v := cube.Clone()
				v.RandomFill(r)
				if VectorDetects(comb, f, v) {
					t.Fatalf("SAT says untestable but PODEM's test detects %s", f.Name(comb))
				}
			}
		}
	}
	if satDefinitive < podemDefinitive {
		t.Errorf("SAT definitive on %d faults, PODEM on %d — SAT should dominate",
			satDefinitive, podemDefinitive)
	}
	t.Logf("definitive answers: SAT %d, PODEM %d (of %d faults)",
		satDefinitive, podemDefinitive, len(col.Faults))
}

// TestSolveOutputOneRejectsSequential covers the guard.
func TestSolveOutputOneRejectsSequential(t *testing.T) {
	seq := gen.Profiles["s27"].MustGenerate(1)
	if _, _, err := SolveOutputOne(seq, seq.POs[0], 0); err == nil {
		t.Fatal("sequential circuit accepted")
	}
}

// TestSATXnorEncoding checks the XNOR chain encoding directly: the model
// returned for "XNOR output = 1" must evaluate to 1, and forcing the
// complement must flip it.
func TestSATXnorEncoding(t *testing.T) {
	b := netlist.NewBuilder("xn")
	a := b.Input("a")
	bb := b.Input("b")
	cc := b.Input("c")
	x := b.Gate(netlist.Xnor, "x", a, bb, cc)
	inv := b.Gate(netlist.Not, "nx", x)
	b.Output(x)
	b.Output(inv)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	view := netlist.NewScanView(c)
	for _, target := range []int32{x, inv} {
		vec, status, err := SolveOutputOne(c, target, 0)
		if err != nil || status != Success {
			t.Fatalf("target %d: status %v err %v", target, status, err)
		}
		full := vec.Clone()
		full.RandomFill(rand.New(rand.NewSource(1)))
		vals := sim.EvalTernary(view, full)
		if vals[target] != logic.One {
			t.Fatalf("SAT model does not drive gate %d to 1", target)
		}
	}
}

// TestSATConstantCone: a target provably constant 0 must come back
// Untestable.
func TestSATConstantCone(t *testing.T) {
	b := netlist.NewBuilder("k")
	a := b.Input("a")
	n := b.Gate(netlist.Not, "n", a)
	y := b.Gate(netlist.And, "y", a, n) // constant 0
	b.Output(y)
	c, _ := b.Build()
	_, status, err := SolveOutputOne(c, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if status != Untestable {
		t.Fatalf("constant-0 target reported %v, want untestable", status)
	}
}

// TestSolveMiterRejectsFailingModel: a model the re-simulation refuses is
// reported as Aborted with the mismatch flagged, and a model that passes
// is returned unchanged.
func TestSolveMiterRejectsFailingModel(t *testing.T) {
	c := gen.C17()
	f := fault.Collapse(c).Faults[0]
	miter, err := BuildDetectionMiter(c, f)
	if err != nil {
		t.Fatal(err)
	}
	never := func(pattern.Vector) bool { return false }
	if cube, status, _, mismatch, err := solveMiter(miter, 0, never); err != nil || status != Aborted || !mismatch || cube != nil {
		t.Fatalf("refused model: cube %v status %v mismatch %v err %v, want nil Aborted true nil", cube, status, mismatch, err)
	}
	detects := func(v pattern.Vector) bool { return VectorDetects(c, f, v) }
	cube, status, _, mismatch, err := solveMiter(miter, 0, detects)
	if err != nil || status != Success || mismatch {
		t.Fatalf("checked model: status %v mismatch %v err %v, want Success false nil", status, mismatch, err)
	}
	want, _, _ := SolveOutputOne(miter, miter.POs[0], 0)
	if cube.Key() != want.Key() {
		t.Fatalf("checked model %s differs from the solver's %s", cube, want)
	}
}

// TestSATModelsResimulate runs detection and diagnostic generation as the
// pipeline does for s27, s208 and s298 diagnostic rows (seed 1) and
// requires every SAT model to have passed re-simulation.
func TestSATModelsResimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("full diagnostic generation")
	}
	satCalls := 0
	for _, name := range []string{"s27", "s208", "s298"} {
		comb := netlist.Combinationalize(gen.Profiles[name].MustGenerate(2))
		faults := fault.Collapse(comb).Faults
		cfg := DefaultConfig(1)
		cfg.Seed = 3
		cfg.Compact = true
		base, st := GenerateDetection(comb, faults, cfg)
		dcfg := DefaultDiagConfig()
		dcfg.Seed = 4
		dcfg.MaxMiterCalls = 3000
		_, dst := GenerateDiagnostic(comb, faults, base, dcfg)
		if st.ModelMismatches != 0 || dst.ModelMismatches != 0 {
			t.Errorf("%s: %d detection and %d diagnostic SAT models failed re-simulation", name, st.ModelMismatches, dst.ModelMismatches)
		}
		satCalls += dst.SATCalls
	}
	if satCalls == 0 {
		t.Fatal("no SAT call ran; the check exercised nothing")
	}
}

// TestSATConflictsS298Diag bounds the deterministic SAT work of the s298
// diagnostic row at the pipeline's configuration (sdd seed 1): detection
// fallbacks, redundancy screening and pair fallbacks together. Structural
// hashing brought it from 36,565 conflicts to a few thousand; a change
// that loses the hashing fails here.
func TestSATConflictsS298Diag(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(2))
	faults := fault.Collapse(comb).Faults
	cfg := DefaultConfig(1)
	cfg.Seed = 3
	cfg.Compact = true
	base, st := GenerateDetection(comb, faults, cfg)
	dcfg := DefaultDiagConfig()
	dcfg.Seed = 4
	dcfg.MaxMiterCalls = 3000
	_, dst := GenerateDiagnostic(comb, faults, base, dcfg)
	if dst.SATCalls == 0 {
		t.Fatal("no SAT call ran; the bound measured nothing")
	}
	if got := st.SATConflicts + dst.SATConflicts; got > 7000 {
		t.Errorf("s298/diag SAT conflicts = %d (detection %d, diagnostic %d over %d calls), want <= 7000",
			got, st.SATConflicts, dst.SATConflicts, dst.SATCalls)
	} else {
		t.Logf("s298/diag SAT conflicts = %d (detection %d, diagnostic %d over %d calls)",
			got, st.SATConflicts, dst.SATConflicts, dst.SATCalls)
	}
}
