package atpg

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sddict/internal/bench"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sat"
	"sddict/internal/sim"
)

// refEncode is the encoder as it stood before structural hashing, copied
// verbatim with its name changed: every gate of the target's cone gets its
// own variable, in gate-index order. The hashed encoder must agree with it
// on every verdict; do not edit this copy to make a comparison pass.
func refEncode(c *netlist.Circuit, target int32, conflictBudget int64) (pattern.Vector, Status, int64, error) {
	if len(c.DFFs) != 0 {
		return nil, Aborted, 0, fmt.Errorf("atpg: SAT solving requires a combinational circuit")
	}
	// Collect the fanin cone of the target.
	inCone := make([]bool, len(c.Gates))
	stack := []int32{target}
	inCone[target] = true
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range c.Gates[g].Fanin {
			if !inCone[d] {
				inCone[d] = true
				stack = append(stack, d)
			}
		}
	}

	s := sat.NewSolver(0)
	varOf := make([]int, len(c.Gates))
	for i := range varOf {
		varOf[i] = -1
	}
	for i := range c.Gates {
		if inCone[i] {
			varOf[i] = s.AddVar()
		}
	}

	lit := func(g int32, neg bool) sat.Lit { return sat.MkLit(varOf[g], neg) }

	for i := range c.Gates {
		if !inCone[i] {
			continue
		}
		g := int32(i)
		gate := &c.Gates[i]
		out := lit(g, false)
		nout := lit(g, true)
		switch gate.Type {
		case netlist.Input:
			// free variable
		case netlist.Const0:
			s.AddClause(nout)
		case netlist.Const1:
			s.AddClause(out)
		case netlist.Buf, netlist.Not:
			d := gate.Fanin[0]
			inv := gate.Type == netlist.Not
			// out <-> (inv ? ¬d : d)
			s.AddClause(nout, lit(d, inv))
			s.AddClause(out, lit(d, !inv))
		case netlist.And, netlist.Nand:
			inv := gate.Type == netlist.Nand
			o, no := out, nout
			if inv {
				o, no = nout, out
			}
			// o -> every input; (¬in_i for some i) -> ¬o
			all := []sat.Lit{o}
			for _, d := range gate.Fanin {
				s.AddClause(no, lit(d, false))
				all = append(all, lit(d, true))
			}
			s.AddClause(all...)
		case netlist.Or, netlist.Nor:
			inv := gate.Type == netlist.Nor
			o, no := out, nout
			if inv {
				o, no = nout, out
			}
			all := []sat.Lit{no}
			for _, d := range gate.Fanin {
				s.AddClause(o, lit(d, true))
				all = append(all, lit(d, false))
			}
			s.AddClause(all...)
		case netlist.Xor, netlist.Xnor:
			// Chain pairwise XOR through auxiliary variables; for XNOR the
			// final link is an XNOR, since ¬(x1⊕…⊕xn) = XNOR(x1⊕…⊕xn-1, xn).
			cur := varOf[gate.Fanin[0]]
			for k := 1; k < len(gate.Fanin); k++ {
				last := k == len(gate.Fanin)-1
				next := varOf[g]
				if !last {
					next = s.AddVar()
				}
				if last && gate.Type == netlist.Xnor {
					encodeXnor(s, next, cur, varOf[gate.Fanin[k]])
				} else {
					encodeXor(s, next, cur, varOf[gate.Fanin[k]])
				}
				cur = next
			}
		}
	}

	s.AddClause(lit(target, false))
	result := s.Solve(conflictBudget)
	_, conflicts := s.Stats()
	switch result {
	case sat.Unsat:
		return nil, Untestable, conflicts, nil
	case sat.Unknown:
		return nil, Aborted, conflicts, nil
	}
	view := netlist.NewScanView(c)
	vec := make(pattern.Vector, view.NumInputs())
	for slot, g := range view.Inputs {
		if varOf[g] < 0 {
			vec[slot] = logic.X
			continue
		}
		vec[slot] = logic.FromBit(boolToBit(s.Value(varOf[g])))
	}
	return vec, Success, conflicts, nil
}

// maxExhaustiveInputs bounds the input cones the exhaustive oracle
// enumerates.
const maxExhaustiveInputs = 20

// exhaustiveOne decides by exhaustive simulation whether some input vector
// drives target of the combinational circuit c to 1. Only the inputs of
// the target's fanin cone are enumerated, 64 assignments per simulated
// batch, with the others held at 0; ok is false when that cone has more
// than maxExhaustiveInputs inputs.
func exhaustiveOne(c *netlist.Circuit, target int32) (satisfiable, ok bool) {
	inCone := make([]bool, len(c.Gates))
	inCone[target] = true
	order := c.Order()
	for i := len(order) - 1; i >= 0; i-- {
		if g := order[i]; inCone[g] {
			for _, d := range c.Gates[g].Fanin {
				inCone[d] = true
			}
		}
	}
	view := netlist.NewScanView(c)
	var slots []int // view input slots of the cone's inputs
	for slot, g := range view.Inputs {
		if inCone[g] {
			slots = append(slots, slot)
		}
	}
	n := len(slots)
	if n > maxExhaustiveInputs {
		return false, false
	}
	// The six low input bits vary within a batch; higher bits are
	// constant within a batch and come from the batch index.
	low := [6]logic.Word{
		0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
		0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
	}
	batch := pattern.Batch{Words: make([]logic.Word, view.NumInputs()), Count: 1 << min(n, 6)}
	s := sim.New(view)
	for w := 0; w < 1<<max(n-6, 0); w++ {
		for k, slot := range slots {
			switch {
			case k < 6:
				batch.Words[slot] = low[k]
			case w>>(k-6)&1 == 1:
				batch.Words[slot] = ^logic.Word(0)
			default:
				batch.Words[slot] = 0
			}
		}
		s.Apply(&batch)
		if s.GoodWord(target)&batch.Mask() != 0 {
			return true, true
		}
	}
	return false, true
}

// drivesOne reports whether the cube, its X inputs filled with 0, drives
// target to 1 by simulation.
func drivesOne(c *netlist.Circuit, target int32, cube pattern.Vector) bool {
	filled := cube.Clone()
	for i, v := range filled {
		if v == logic.X {
			filled[i] = logic.Zero
		}
	}
	return sim.EvalTernary(netlist.NewScanView(c), filled)[target] == logic.One
}

// encoderCase is one miter the encoder oracles run on.
type encoderCase struct {
	name  string
	miter *netlist.Circuit
}

// encoderCases lists every detection miter of c17 and s27, every c17 pair
// miter and a fixed stride sample of s208 pairs.
func encoderCases(t testing.TB) []encoderCase {
	var cases []encoderCase
	add := func(name string, m *netlist.Circuit, err error) {
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, encoderCase{name, m})
	}
	s27 := netlist.Combinationalize(gen.Profiles["s27"].MustGenerate(2))
	for _, c := range []*netlist.Circuit{gen.C17(), s27} {
		faults := fault.Collapse(c).Faults
		for i := range faults {
			m, err := BuildDetectionMiter(c, faults[i])
			add(fmt.Sprintf("%s detect %s", c.Name, faults[i].Name(c)), m, err)
		}
	}
	c17 := gen.C17()
	faults := fault.Collapse(c17).Faults
	for i := range faults {
		for j := i + 1; j < len(faults); j++ {
			m, err := BuildMiter(c17, faults[i], faults[j])
			add(fmt.Sprintf("c17 pair %s/%s", faults[i].Name(c17), faults[j].Name(c17)), m, err)
		}
	}
	s208 := netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(2))
	faults = fault.Collapse(s208).Faults
	for i := 0; i < len(faults); i += 7 {
		for j := i + 1; j < len(faults); j += 61 {
			m, err := BuildMiter(s208, faults[i], faults[j])
			add(fmt.Sprintf("s208 pair %s/%s", faults[i].Name(s208), faults[j].Name(s208)), m, err)
		}
	}
	return cases
}

// TestHashedEncodingMatchesReference: the hashed encoder and the unhashed
// reference give the same verdict on every case, neither runs out of the
// default budget, and every Sat model of either drives the miter output to
// 1 in simulation.
func TestHashedEncodingMatchesReference(t *testing.T) {
	for _, tc := range encoderCases(t) {
		out := tc.miter.POs[0]
		vec, status, _, err := solveOutputOne(tc.miter, out, 0)
		if err != nil {
			t.Fatal(err)
		}
		refVec, refStatus, _, err := refEncode(tc.miter, out, 0)
		if err != nil {
			t.Fatal(err)
		}
		if status == Aborted || refStatus == Aborted {
			t.Fatalf("%s: budget-out (hashed %v, reference %v)", tc.name, status, refStatus)
		}
		if status != refStatus {
			t.Fatalf("%s: hashed verdict %v, reference %v", tc.name, status, refStatus)
		}
		if status == Success && (!drivesOne(tc.miter, out, vec) || !drivesOne(tc.miter, out, refVec)) {
			t.Fatalf("%s: model does not re-simulate (hashed %s, reference %s)", tc.name, vec, refVec)
		}
	}
}

// candidatePairs returns the miters of fault pairs of c that 256 random
// vectors leave with identical responses: the pairs the diagnostic
// generator hands to SAT, among them the functionally equivalent ones.
func candidatePairs(t testing.TB, c *netlist.Circuit, limit int) []encoderCase {
	view := netlist.NewScanView(c)
	faults := fault.Collapse(c).Faults
	r := rand.New(rand.NewSource(7))
	vecs := make([]pattern.Vector, 256)
	for i := range vecs {
		vecs[i] = pattern.Random(r, view.NumInputs())
	}
	sig := make([]string, len(faults))
	for i, f := range faults {
		var b []byte
		for _, v := range vecs {
			b = append(b, sim.RefFaultOutputs(view, f, v).String(view.NumOutputs())...)
		}
		sig[i] = string(b)
	}
	var cases []encoderCase
	for i := range faults {
		for j := i + 1; j < len(faults) && len(cases) < limit; j++ {
			if sig[i] != sig[j] {
				continue
			}
			m, err := BuildMiter(c, faults[i], faults[j])
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, encoderCase{fmt.Sprintf("%s pair %s/%s", c.Name, faults[i].Name(c), faults[j].Name(c)), m})
		}
	}
	return cases
}

// TestUnsatVerdictsMatchExhaustive: every UNSAT verdict of the hashed
// encoder — a redundant fault or an equivalent pair — is confirmed by
// exhaustive simulation whenever the miter's output cone has at most
// maxExhaustiveInputs inputs, and every Sat model re-simulates. Besides
// the reference cases it covers the random-resistant pairs of s208 and
// s298, where the pipeline's UNSAT proofs come from.
func TestUnsatVerdictsMatchExhaustive(t *testing.T) {
	cases := encoderCases(t)
	for _, name := range []string{"s208", "s298"} {
		c := netlist.Combinationalize(gen.Profiles[name].MustGenerate(2))
		cases = append(cases, candidatePairs(t, c, 150)...)
	}
	checked := 0
	for _, tc := range cases {
		out := tc.miter.POs[0]
		vec, status, _, err := solveOutputOne(tc.miter, out, 0)
		if err != nil {
			t.Fatal(err)
		}
		switch status {
		case Success:
			if !drivesOne(tc.miter, out, vec) {
				t.Fatalf("%s: model %s does not re-simulate", tc.name, vec)
			}
		case Untestable:
			satisfiable, ok := exhaustiveOne(tc.miter, out)
			if !ok {
				continue
			}
			checked++
			if satisfiable {
				t.Fatalf("%s: UNSAT, but exhaustive simulation drives the miter output to 1", tc.name)
			}
		default:
			t.Fatalf("%s: budget-out at the default budget", tc.name)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d UNSAT verdicts checked; the oracle exercised too little", checked)
	}
	t.Logf("%d UNSAT verdicts confirmed exhaustively over %d miters", checked, len(cases))
}

// fanoutCone marks the gates of c whose value fault f can change: the
// fault site's gate and everything downstream of it.
func fanoutCone(c *netlist.Circuit, f fault.Fault) []bool {
	cone := make([]bool, len(c.Gates))
	cone[f.Gate] = true
	for _, g := range c.Order() {
		for _, d := range c.Gates[g].Fanin {
			if cone[d] {
				cone[g] = true
			}
		}
	}
	return cone
}

// copyGates returns the miter gates miterSolver.build gives c's gate i in
// copy A and copy B of a miter whose copy B has a fault: each copy holds,
// after the inputs and its stuck-at constant when it has a fault, one
// gate per non-input gate of c in gate order.
func copyGates(c *netlist.Circuit, fa *fault.Fault, i int) (a, b int32) {
	gates := int32(0) // non-input gates of c
	k := int32(-1)    // i's index among them
	for g := range c.Gates {
		if c.Gates[g].Type != netlist.Input {
			if g == i {
				k = gates
			}
			gates++
		}
	}
	a = int32(len(c.PIs)) + k
	if fa != nil {
		a++
	}
	return a, a + gates + 1
}

// TestHashingMergesOutsideFaultCones: in every detection miter of s27 and
// s208 and every c17 pair miter, as the production miterSolver builds and
// encodes them, each gate of copy B that lies outside the faults' fanout
// cones shares its variable with its twin in copy A, wherever both are
// encoded.
func TestHashingMergesOutsideFaultCones(t *testing.T) {
	merged := 0
	check := func(ms *miterSolver, fa *fault.Fault, fb fault.Fault) {
		c := ms.c
		cone := fanoutCone(c, fb)
		if fa != nil {
			for g, in := range fanoutCone(c, *fa) {
				cone[g] = cone[g] || in
			}
		}
		ms.enc.encode(&ms.m, ms.build(fa, &fb))
		varOf := ms.enc.varOf
		for g := range c.Gates {
			if cone[g] || c.Gates[g].Type == netlist.Input {
				continue
			}
			a, b := copyGates(c, fa, g)
			if ms.m.typ[a] != c.Gates[g].Type || ms.m.typ[b] != c.Gates[g].Type {
				t.Fatalf("gate %s: copies %d and %d are %v and %v", c.Gates[g].Name, a, b, ms.m.typ[a], ms.m.typ[b])
			}
			if varOf[a] < 0 || varOf[b] < 0 {
				continue // a fault cut this copy's paths to the outputs
			}
			if varOf[b] != varOf[a] {
				t.Fatalf("%s/%s: gate %s outside the fault cones has variable %d in copy B, %d in copy A",
					c.Name, fb.Name(c), c.Gates[g].Name, varOf[b], varOf[a])
			}
			merged++
		}
	}
	for _, name := range []string{"s27", "s208"} {
		c := netlist.Combinationalize(gen.Profiles[name].MustGenerate(2))
		ms := newMiterSolver(c)
		for _, f := range fault.Collapse(c).Faults {
			check(ms, nil, f)
		}
	}
	c17 := gen.C17()
	ms := newMiterSolver(c17)
	faults := fault.Collapse(c17).Faults
	for i := range faults {
		for j := i + 1; j < len(faults); j++ {
			check(ms, &faults[i], faults[j])
		}
	}
	if merged == 0 {
		t.Fatal("no gate merged; the check exercised nothing")
	}
}

// encoderIdentity builds the miter of fa and fb (fa nil: the detection
// miter of fb) both ways, the production miterSolver and coneEncoder and
// the reference BuildMiter/BuildDetectionMiter and encodeCone, and
// requires the same gates (types and fanins, id for id), the same
// variable of every gate, the same variable count and the same clause
// sequence; then the same Solve result, conflict count and model at the
// given budget. It returns the verdict.
func encoderIdentity(t testing.TB, ms *miterSolver, fa *fault.Fault, fb fault.Fault, budget int64) Status {
	t.Helper()
	c := ms.c
	var m *netlist.Circuit
	var err error
	if fa == nil {
		m, err = BuildDetectionMiter(c, fb)
	} else {
		m, err = BuildMiter(c, *fa, fb)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := ms.build(fa, &fb)
	n := &ms.m
	if len(n.typ) != len(m.Gates) || out != m.POs[0] || !slices.Equal(n.inputs, m.PIs) {
		t.Fatalf("%s: %d gates, output %d, inputs %v; reference %d, %d, %v", m.Name, len(n.typ), out, n.inputs, len(m.Gates), m.POs[0], m.PIs)
	}
	for g := range m.Gates {
		if n.typ[g] != m.Gates[g].Type || !slices.Equal(n.faninOf(int32(g)), m.Gates[g].Fanin) {
			t.Fatalf("%s: gate %d is %v%v, reference %s %v%v", m.Name, g, n.typ[g], n.faninOf(int32(g)),
				m.Gates[g].Name, m.Gates[g].Type, m.Gates[g].Fanin)
		}
	}
	e := &ms.enc
	e.encode(n, out)
	var rec cnfRecorder
	varOf := encodeCone(&rec, m, m.POs[0])
	for g, v := range varOf {
		if int(e.varOf[g]) != v {
			t.Fatalf("%s: gate %s has variable %d, reference %d", m.Name, m.Gates[g].Name, e.varOf[g], v)
		}
	}
	if e.vars != rec.vars || len(e.ends) != len(rec.clauses) {
		t.Fatalf("%s: %d variables and %d clauses, reference %d and %d", m.Name, e.vars, len(e.ends), rec.vars, len(rec.clauses))
	}
	start := int32(0)
	for k, end := range e.ends {
		if !slices.Equal(e.lits[start:end], rec.clauses[k]) {
			t.Fatalf("%s: clause %d is %v, reference %v", m.Name, k, e.lits[start:end], rec.clauses[k])
		}
		start = end
	}
	vec, status, conflicts := e.solve(n, out, budget)
	refVec, refStatus, refConflicts := refSolveOutputOne(m, m.POs[0], budget)
	if status != refStatus || conflicts != refConflicts || !slices.Equal(vec, refVec) {
		t.Fatalf("%s: %v after %d conflicts, model %s; reference %v after %d, model %s",
			m.Name, status, conflicts, vec, refStatus, refConflicts, refVec)
	}
	return status
}

// TestEncoderMatchesNetlistEncoder pins the production miter encoding to
// the named-netlist reference (encoderIdentity): the detection miter of
// every collapsed fault of c17 and s208, every c17 pair, and 300 seeded
// random pairs and 300 seeded random detection miters each of s298, s344
// and s953.
func TestEncoderMatchesNetlistEncoder(t *testing.T) {
	budget := DefaultDiagConfig().SATConflictBudget
	verdicts := map[Status]int{}
	c17 := gen.C17()
	for _, c := range []*netlist.Circuit{c17, netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(2))} {
		ms := newMiterSolver(c)
		for _, f := range fault.Collapse(c).Faults {
			verdicts[encoderIdentity(t, ms, nil, f, budget)]++
		}
	}
	ms := newMiterSolver(c17)
	faults := fault.Collapse(c17).Faults
	for i := range faults {
		for j := i + 1; j < len(faults); j++ {
			verdicts[encoderIdentity(t, ms, &faults[i], faults[j], budget)]++
		}
	}
	r := rand.New(rand.NewSource(27))
	for _, name := range []string{"s298", "s344", "s953"} {
		c := netlist.Combinationalize(gen.Profiles[name].MustGenerate(2))
		ms := newMiterSolver(c)
		faults := fault.Collapse(c).Faults
		for k := 0; k < 300; k++ {
			fa, fb := faults[r.Intn(len(faults))], faults[r.Intn(len(faults))]
			verdicts[encoderIdentity(t, ms, &fa, fb, budget)]++
			verdicts[encoderIdentity(t, ms, nil, faults[r.Intn(len(faults))], budget)]++
		}
	}
	if verdicts[Success] == 0 || verdicts[Untestable] == 0 {
		t.Fatalf("verdicts %v: the comparison covered only one kind", verdicts)
	}
	t.Logf("verdicts: %d sat, %d unsat, %d budget-out", verdicts[Success], verdicts[Untestable], verdicts[Aborted])
}

// s27Bench is the ISCAS'89 s27 netlist as its .bench file gives it: most
// gates read a line declared further down.
const s27Bench = `INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

// TestMiterWiresForwardReferences: on s27 parsed from its .bench text,
// where gates read lines declared after them, every detection and pair
// verdict of the miter solver matches exhaustive simulation of the
// circuit over all 2^7 scan inputs, and every model re-simulates.
func TestMiterWiresForwardReferences(t *testing.T) {
	seq, err := bench.Parse(strings.NewReader(s27Bench), "s27")
	if err != nil {
		t.Fatal(err)
	}
	c := netlist.Combinationalize(seq)
	view := netlist.NewScanView(c)
	faults := fault.Collapse(c).Faults
	w := view.NumInputs()
	resp := make([][]string, len(faults)+1) // per fault, and fault-free last: response per vector
	for v := 0; v < 1<<w; v++ {
		vec := make(pattern.Vector, w)
		for i := range vec {
			vec[i] = logic.FromBit(uint64(v >> i & 1))
		}
		for i, f := range faults {
			resp[i] = append(resp[i], sim.RefFaultOutputs(view, f, vec).String(view.NumOutputs()))
		}
		resp[len(faults)] = append(resp[len(faults)], goodOutputs(view, vec).String(view.NumOutputs()))
	}
	differ := func(a, b []string) bool { return !slices.Equal(a, b) }
	ms := newMiterSolver(c)
	check := func(name string, want bool, status Status, mismatch bool) {
		t.Helper()
		if mismatch || status == Aborted || (status == Success) != want {
			t.Fatalf("%s: %v (mismatch %v), exhaustive simulation says distinguishable=%v", name, status, mismatch, want)
		}
	}
	for i, f := range faults {
		_, status, _, mismatch := ms.detect(f, 0)
		check("detect "+f.Name(c), differ(resp[i], resp[len(faults)]), status, mismatch)
		for j := i + 1; j < len(faults); j++ {
			_, status, _, mismatch := ms.distinguish(f, faults[j], 0)
			check("pair "+f.Name(c)+"/"+faults[j].Name(c), differ(resp[i], resp[j]), status, mismatch)
		}
	}
}

// TestDetectAllocs bounds the allocations of one detection-miter solve
// on a warmed-up miterSolver, here of a redundant s298 fault that takes
// a few hundred conflicts: the miter and the CNF are built in reused
// storage, so what remains is the solver's per-variable arrays, its
// clause and literal slabs, a few watch-list chunks and the growth of its
// decision stack and learned-clause scratch. One allocation per clause or
// per watch list, as the solver made before, is hundreds.
func TestDetectAllocs(t *testing.T) {
	c := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(2))
	faults := fault.Collapse(c).Faults
	ms := newMiterSolver(c)
	budget := DefaultConfig(1).SATConflictBudget
	var redundant fault.Fault
	found := false
	for _, f := range faults {
		if _, status, _, _ := ms.detect(f, budget); status == Untestable && !found {
			redundant, found = f, true
		}
	}
	if !found {
		t.Fatal("s298 has no redundant fault")
	}
	const bound = 40
	if got := testing.AllocsPerRun(20, func() { ms.detect(redundant, budget) }); got > bound {
		t.Errorf("detect(%s) allocates %v times, want at most %d", redundant.Name(c), got, bound)
	} else {
		t.Logf("detect(%s) allocates %v times", redundant.Name(c), got)
	}
}
