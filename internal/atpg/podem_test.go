package atpg

import (
	"fmt"
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
)

// TestPodemC17AllFaultsTestable: c17 is irredundant — PODEM must find a
// test for every collapsed fault, and every cube must actually detect its
// fault under simulation after random fill.
func TestPodemC17AllFaultsTestable(t *testing.T) {
	c := gen.C17()
	col := fault.Collapse(c)
	e := NewEngine(c)
	r := rand.New(rand.NewSource(2))
	for _, f := range col.Faults {
		cube, status := e.Generate(f)
		if status != Success {
			t.Fatalf("fault %s: %v, want success", f.Name(c), status)
		}
		for trial := 0; trial < 4; trial++ {
			v := cube.Clone()
			v.RandomFill(r)
			if !VectorDetects(c, f, v) {
				t.Fatalf("fault %s: cube %s filled %s does not detect", f.Name(c), cube, v)
			}
		}
	}
}

// TestPodemSyntheticCubesDetect runs PODEM on every collapsed fault of a
// synthetic scan circuit; every Success cube must detect its fault. (Some
// faults may legitimately be untestable in a random circuit.)
func TestPodemSyntheticCubesDetect(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(4))
	col := fault.Collapse(comb)
	e := NewEngine(comb)
	e.BacktrackLimit = 60
	r := rand.New(rand.NewSource(6))
	successes := 0
	for _, f := range col.Faults {
		cube, status := e.Generate(f)
		if status != Success {
			continue
		}
		successes++
		v := cube.Clone()
		v.RandomFill(r)
		if !VectorDetects(comb, f, v) {
			t.Fatalf("fault %s: PODEM cube does not detect", f.Name(comb))
		}
	}
	if successes < len(col.Faults)*8/10 {
		t.Fatalf("only %d/%d faults testable; engine looks broken", successes, len(col.Faults))
	}
}

// TestPodemUntestable: a classic redundancy — y = OR(a, NOT(a)) is
// constantly 1, so y stuck-at-1 is untestable, while y stuck-at-0 is
// detected by any vector.
func TestPodemUntestable(t *testing.T) {
	b := netlist.NewBuilder("red")
	a := b.Input("a")
	n := b.Gate(netlist.Not, "n", a)
	y := b.Gate(netlist.Or, "y", a, n)
	b.Output(y)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c)
	if _, status := e.Generate(fault.Fault{Gate: y, Pin: fault.StemPin, Stuck: 1}); status != Untestable {
		t.Fatalf("y s-a-1 reported %v, want untestable", status)
	}
	cube, status := e.Generate(fault.Fault{Gate: y, Pin: fault.StemPin, Stuck: 0})
	if status != Success {
		t.Fatalf("y s-a-0 reported %v, want success", status)
	}
	v := cube.Clone()
	v.RandomFill(rand.New(rand.NewSource(1)))
	if !VectorDetects(c, fault.Fault{Gate: y, Pin: fault.StemPin, Stuck: 0}, v) {
		t.Fatal("cube for y s-a-0 does not detect")
	}
}

// TestPodemBranchFault targets a fanout-branch fault specifically: the
// stem behaves normally but one branch is stuck.
func TestPodemBranchFault(t *testing.T) {
	// s = NOT(a); y1 = AND(s, b); y2 = OR(s, c). Branch of s into y1 s-a-1.
	b := netlist.NewBuilder("branch")
	a := b.Input("a")
	bi := b.Input("b")
	ci := b.Input("c")
	s := b.Gate(netlist.Not, "s", a)
	y1 := b.Gate(netlist.And, "y1", s, bi)
	y2 := b.Gate(netlist.Or, "y2", s, ci)
	b.Output(y1)
	b.Output(y2)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c)
	f := fault.Fault{Gate: y1, Pin: 0, Stuck: 1}
	cube, status := e.Generate(f)
	if status != Success {
		t.Fatalf("branch fault reported %v, want success", status)
	}
	v := cube.Clone()
	v.RandomFill(rand.New(rand.NewSource(1)))
	if !VectorDetects(c, f, v) {
		t.Fatalf("cube %s does not detect the branch fault", v)
	}
	// The detection must require a=1 (s=0 good, branch forced 1) and b=1.
	if cube[0] != logic.One {
		t.Errorf("cube[a] = %v, want 1 (excite the branch)", cube[0])
	}
	if cube[1] != logic.One {
		t.Errorf("cube[b] = %v, want 1 (propagate through AND)", cube[1])
	}
}

// TestPodemAborted: a tiny backtrack limit must abort rather than spin.
func TestPodemAborted(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(8))
	col := fault.Collapse(comb)
	e := NewEngine(comb)
	e.BacktrackLimit = 0
	aborted := 0
	for _, f := range col.Faults[:50] {
		if _, status := e.Generate(f); status == Aborted {
			aborted++
		}
	}
	// With zero backtracks allowed, at least some faults must abort; the
	// engine must never hang (reaching here is the real assertion).
	t.Logf("%d/50 aborted with zero backtrack budget", aborted)
}

// TestEngineRejectsSequential ensures the engine demands a combinational
// circuit.
func TestEngineRejectsSequential(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine accepted a sequential circuit")
		}
	}()
	NewEngine(gen.Profiles["s27"].MustGenerate(1))
}

// TestRandomizedGenerationDiversity: with a random source installed,
// repeated runs on the same fault should usually produce more than one
// distinct cube (needed for n-detect top-up).
func TestRandomizedGenerationDiversity(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s344"].MustGenerate(2))
	col := fault.Collapse(comb)
	e := NewEngine(comb)
	e.Randomize(rand.New(rand.NewSource(77)))
	distinct := map[string]bool{}
	target := col.Faults[len(col.Faults)/2]
	for i := 0; i < 12; i++ {
		cube, status := e.Generate(target)
		if status == Success {
			distinct[cube.Key()] = true
		}
	}
	if len(distinct) < 2 {
		t.Logf("only %d distinct cubes for %s; acceptable but unusual", len(distinct), target.Name(comb))
	}
}

// TestImplyEventsMatchesFull drives the event-driven implication through
// random input set/flip/unset steps, some batched before one settle the
// way a backtrack unwinds several decisions, and checks every gate value
// against a full imply after each settle. It covers stem, branch and
// input faults, and miters: their constant lines make the fault-free
// all-X state non-trivial, and with both faults on one output (stuck-at
// 0 in one copy, 1 in the other) the miter output is already 1 before
// any decision.
func TestImplyEventsMatchesFull(t *testing.T) {
	s208 := netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(2))
	sfaults := fault.Collapse(s208).Faults
	pairMiter, err := BuildMiter(s208, sfaults[3], sfaults[len(sfaults)/2])
	if err != nil {
		t.Fatal(err)
	}
	po := s208.POs[0]
	constMiter, err := BuildMiter(s208, fault.Fault{Gate: po, Pin: fault.StemPin, Stuck: 0}, fault.Fault{Gate: po, Pin: fault.StemPin, Stuck: 1})
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*netlist.Circuit{
		gen.C17(),
		s208,
		netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(2)),
		pairMiter,
		constMiter,
	}
	r := rand.New(rand.NewSource(14))
	for _, c := range circuits {
		e := NewEngine(c)
		faults := fault.Collapse(c).Faults
		for _, o := range c.POs {
			faults = append(faults, fault.Fault{Gate: o, Pin: fault.StemPin, Stuck: 0}, fault.Fault{Gate: o, Pin: fault.StemPin, Stuck: 1})
		}
		check := func(step string, f fault.Fault) {
			t.Helper()
			got := append([]logic.V5(nil), e.val...)
			e.imply()
			for g := range got {
				if got[g] != e.val[g] {
					t.Fatalf("%s, fault %s, %s: gate %s = %v, full imply %v",
						c.Name, f.Name(c), step, c.Gates[g].Name, got[g], e.val[g])
				}
			}
		}
		for _, f := range faults {
			e.start(f)
			check("start", f)
			for step := 0; step < 8; step++ {
				for n := 1 + r.Intn(3); n > 0; n-- {
					pi := c.PIs[r.Intn(len(c.PIs))]
					switch r.Intn(3) {
					case 0: // set
						e.setPI(pi, logic.FromBit(uint64(r.Intn(2))))
					case 1: // flip
						e.setPI(pi, e.piVal[pi].Not())
					default: // unset
						e.setPI(pi, logic.X)
					}
				}
				e.settle()
				check(fmt.Sprintf("step %d", step), f)
			}
		}
	}
}
