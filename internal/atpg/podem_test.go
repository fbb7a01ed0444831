package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// regionMismatch checks the implication invariant of got, the engine's
// values, against full, a full imply of the same assignment: every gate
// of the implication region holds its full-imply value, and every other
// gate the fault-free all-X value start copied in. It returns the first
// gate that breaks it, or -1.
func regionMismatch(e *Engine, got, full []logic.V5) int {
	for g := range got {
		want := e.freeVal[g]
		if e.inRegion(int32(g)) {
			want = full[g]
		}
		if got[g] != want {
			return g
		}
	}
	return -1
}

// TestImplyEventsMatchesFull drives the event-driven implication through
// random input set/flip/unset steps, some batched before one settle the
// way a backtrack unwinds several decisions, and checks every gate value
// against the implication invariant after each settle: a region gate
// equals a full imply, any other gate holds its freeVal. Inputs are drawn
// from the whole circuit, so some steps set inputs outside the region,
// which settle must leave alone. It covers stem, branch and
// input faults, and miters: their constant lines make the fault-free
// all-X state non-trivial, and with both faults on one output (stuck-at
// 0 in one copy, 1 in the other) the miter output is already 1 before
// any decision.
func TestImplyEventsMatchesFull(t *testing.T) {
	s208 := netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(2))
	pairMiter, constMiter := implyTestMiters(t, s208)
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
			if g := regionMismatch(e, got, e.val); g >= 0 {
				t.Fatalf("%s, fault %s, %s: gate %s (in region: %v) = %v, full imply %v, freeVal %v",
					c.Name, f.Name(c), step, c.Gates[g].Name, e.inRegion(int32(g)), got[g], e.val[g], e.freeVal[g])
			}
			copy(e.val, got)
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

// implyTestMiters returns the two miters TestImplyEventsMatchesFull and
// TestRegionImplicationMatchesFull run PODEM on: a pair miter of two s208
// faults, and the miter of an s208 output stuck at 0 in one copy and at 1
// in the other, whose output is 1 before any decision.
func implyTestMiters(t *testing.T, s208 *netlist.Circuit) (pairMiter, constMiter *netlist.Circuit) {
	t.Helper()
	sfaults := fault.Collapse(s208).Faults
	pairMiter, err := BuildMiter(s208, sfaults[3], sfaults[len(sfaults)/2])
	if err != nil {
		t.Fatal(err)
	}
	po := s208.POs[0]
	constMiter, err = BuildMiter(s208, fault.Fault{Gate: po, Pin: fault.StemPin, Stuck: 0}, fault.Fault{Gate: po, Pin: fault.StemPin, Stuck: 1})
	if err != nil {
		t.Fatal(err)
	}
	return pairMiter, constMiter
}

// TestRegionImplicationMatchesFull runs PODEM at the detection backtrack
// limit over every collapsed fault of s208, s298, s344 and s953 and of the
// two implyTestMiters, deterministic and randomized, on two engines: one
// as Generate runs, implying only the region, and one that re-implies
// every gate before each step of the search, through the per-decision
// context probe, so every value it reads is a full imply's. The runs must
// agree fault by fault on the status, the cube, the backtrack count and
// the next draw of the random source: the search reads no gate that
// bounded implication leaves at its freeVal.
func TestRegionImplicationMatchesFull(t *testing.T) {
	s208 := netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(2))
	pairMiter, constMiter := implyTestMiters(t, s208)
	circuits := []*netlist.Circuit{s208, pairMiter, constMiter}
	for _, name := range []string{"s298", "s344", "s953"} {
		circuits = append(circuits, netlist.Combinationalize(gen.Profiles[name].MustGenerate(2)))
	}
	limit := DefaultConfig(1).BacktrackLimit
	staleAll := 0
	for _, c := range circuits {
		for _, randomized := range []bool{false, true} {
			bounded, full := NewEngine(c), NewEngine(c)
			bounded.BacktrackLimit, full.BacktrackLimit = limit, limit
			var rb, rf *rand.Rand
			if randomized {
				rb, rf = rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
				bounded.Randomize(rb)
				full.Randomize(rf)
			}
			stale, backtracks := 0, 0
			full.SetContext(frontierProbe{context.Background(), func() {
				// Count the steps where a full imply moves a gate off the
				// value bounded implication left it: a stale read would
				// show there. A miter's region is every gate, since each
				// reaches its one output.
				before := slices.Clone(full.val)
				full.imply()
				if !slices.Equal(before, full.val) {
					stale++
				}
			}})
			for _, f := range fault.Collapse(c).Faults {
				cb, sb := bounded.Generate(f)
				cf, sf := full.Generate(f)
				if sb != sf || !slices.Equal(cb, cf) || bounded.backtracks != full.backtracks {
					t.Fatalf("%s randomized=%v, fault %s: bounded %v %s after %d backtracks, full %v %s after %d",
						c.Name, randomized, f.Name(c), sb, cb, bounded.backtracks, sf, cf, full.backtracks)
				}
				if randomized && rb.Int63() != rf.Int63() {
					t.Fatalf("%s randomized=%v, fault %s: the runs drew different random numbers", c.Name, randomized, f.Name(c))
				}
				backtracks += bounded.backtracks
			}
			if backtracks == 0 {
				t.Fatalf("%s randomized=%v: no backtrack; the test exercised nothing", c.Name, randomized)
			}
			staleAll += stale
			t.Logf("%s randomized=%v: %d backtracks, %d steps with gates off the region", c.Name, randomized, backtracks, stale)
		}
	}
	if staleAll == 0 {
		t.Fatal("no step left a gate off the region; the test exercised nothing")
	}
}

// frontierProbe is a context whose Err runs a check and reports no
// error. Generate consults its context once per step of the search,
// right before it tests detection and picks the next objective, so the
// check sees every state the search reaches.
type frontierProbe struct {
	context.Context
	check func()
}

func (p frontierProbe) Err() error {
	p.check()
	return nil
}

// scanFrontier is the full-circuit D-frontier the cone walk replaces:
// every non-source gate, in gate order, whose output is X while one of
// its fanins (or, for a branch fault, its faulty pin) carries a fault
// effect.
func scanFrontier(e *Engine) []int32 {
	var frontier []int32
	for i := range e.c.Gates {
		g := int32(i)
		if e.val[g] != logic.X5 || e.c.IsSource(g) {
			continue
		}
		if !e.target.IsStem() && e.target.Gate == g {
			d := e.c.Gates[i].Fanin[e.target.Pin]
			if logic.FromPair(e.val[d].Good(), logic.FromBit(uint64(e.target.Stuck))).IsD() {
				frontier = append(frontier, g)
				continue
			}
		}
		for _, d := range e.c.Gates[i].Fanin {
			if e.val[d].IsD() {
				frontier = append(frontier, g)
				break
			}
		}
	}
	return frontier
}

// TestConeFrontierMatchesScan runs PODEM over every collapsed fault of
// s208 and s298, deterministic and randomized, and requires dFrontier to
// equal the full scan, order included, at every step of every search.
func TestConeFrontierMatchesScan(t *testing.T) {
	for _, name := range []string{"s208", "s298"} {
		for _, randomized := range []bool{false, true} {
			c := netlist.Combinationalize(gen.Profiles[name].MustGenerate(2))
			e := NewEngine(c)
			if randomized {
				e.Randomize(rand.New(rand.NewSource(1)))
			}
			var f fault.Fault
			steps, nonEmpty := 0, 0
			e.SetContext(frontierProbe{context.Background(), func() {
				got, want := e.dFrontier(), scanFrontier(e)
				if !slices.Equal(got, want) {
					t.Fatalf("%s randomized=%v, fault %s: cone frontier %v, full scan %v",
						name, randomized, f.Name(c), got, want)
				}
				steps++
				if len(want) > 0 {
					nonEmpty++
				}
			}})
			for _, f = range fault.Collapse(c).Faults {
				e.Generate(f)
			}
			if nonEmpty == 0 {
				t.Fatalf("%s randomized=%v: no step had a D-frontier; the test exercised nothing", name, randomized)
			}
			t.Logf("%s randomized=%v: %d steps checked, %d with a frontier", name, randomized, steps, nonEmpty)
		}
	}
}

// TestTrailMatchesImply runs PODEM over every collapsed fault of s208,
// s298 and s344 at the detection backtrack limit, deterministic and
// randomized, and checks the undo trail at every step of every search:
//   - every region gate value equals a fresh imply of the input
//     assignment, and every other gate holds its freeVal;
//   - the trail is one segment per decision, from its mark to the next
//     decision's, and the first mark is 0: start left nothing on it;
//   - each segment is the one settle of its decision's latest value, so
//     it begins with that input and names no gate twice;
//   - undoing the segments from the top gives, at each mark, the fresh
//     imply of the decisions below it on the region, and freeVal off it.
func TestTrailMatchesImply(t *testing.T) {
	for _, name := range []string{"s208", "s298", "s344"} {
		for _, randomized := range []bool{false, true} {
			c := netlist.Combinationalize(gen.Profiles[name].MustGenerate(2))
			e := NewEngine(c)
			e.BacktrackLimit = DefaultConfig(1).BacktrackLimit
			if randomized {
				e.Randomize(rand.New(rand.NewSource(1)))
			}
			var f fault.Fault
			steps, undone := 0, 0
			seen := make(map[int32]bool)
			e.SetContext(frontierProbe{context.Background(), func() {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s randomized=%v, fault %s, step %d: %s", name, randomized, f.Name(c), steps, fmt.Sprintf(format, args...))
				}
				steps++
				cur := slices.Clone(e.val)
				pis := slices.Clone(e.piVal)
				defer func() {
					copy(e.val, cur)
					copy(e.piVal, pis)
				}()
				e.imply()
				if g := regionMismatch(e, cur, e.val); g >= 0 {
					fail("settled value of %s differs from the implication invariant", c.Gates[g].Name)
				}
				if len(e.stack) == 0 {
					if len(e.trail) != 0 {
						fail("%d trail entries before the first decision", len(e.trail))
					}
					return
				}
				if e.stack[0].mark != 0 {
					fail("first decision's mark is %d", e.stack[0].mark)
				}
				vals := slices.Clone(cur)
				end := len(e.trail)
				for d := len(e.stack) - 1; d >= 0; d-- {
					dec := e.stack[d]
					seg := e.trail[dec.mark:end]
					if len(seg) == 0 || seg[0].g != dec.gate {
						fail("decision %d (input %s) has trail segment %v", d, c.Gates[dec.gate].Name, seg)
					}
					clear(seen)
					for i := len(seg) - 1; i >= 0; i-- {
						if seen[seg[i].g] {
							fail("decision %d's trail segment changes %s twice", d, c.Gates[seg[i].g].Name)
						}
						seen[seg[i].g] = true
						vals[seg[i].g] = seg[i].old
					}
					end = int(dec.mark)
					e.piVal[dec.gate] = logic.X
					e.imply()
					if g := regionMismatch(e, vals, e.val); g >= 0 {
						fail("undoing the trail to decision %d's mark leaves %s off the implication invariant", d, c.Gates[g].Name)
					}
					undone++
				}
			}})
			for _, f = range fault.Collapse(c).Faults {
				e.Generate(f)
			}
			if undone == 0 {
				t.Fatalf("%s randomized=%v: no step had a decision; the test exercised nothing", name, randomized)
			}
			t.Logf("%s randomized=%v: %d steps checked, %d trail segments undone", name, randomized, steps, undone)
		}
	}
}

// TestGenerateAllocs: once an engine has run over a circuit's faults,
// Generate allocates nothing but the cube it returns.
func TestGenerateAllocs(t *testing.T) {
	c := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(2))
	faults := fault.Collapse(c).Faults
	e := NewEngine(c)
	e.Randomize(rand.New(rand.NewSource(1)))
	for _, f := range faults {
		e.Generate(f)
	}
	var hit, miss fault.Fault
	foundHit, foundMiss := false, false
	for _, f := range faults {
		switch _, status := e.Generate(f); {
		case status == Success && !foundHit:
			hit, foundHit = f, true
		case status != Success && !foundMiss:
			miss, foundMiss = f, true
		}
	}
	if !foundHit || !foundMiss {
		t.Fatal("s298 lacks a testable or an untestable fault")
	}
	for _, tc := range []struct {
		f    fault.Fault
		want float64
	}{{hit, 1}, {miss, 0}} {
		if got := testing.AllocsPerRun(50, func() { e.Generate(tc.f) }); got > tc.want {
			t.Errorf("Generate(%s) allocates %v times, want %v", tc.f.Name(c), got, tc.want)
		}
	}
}
