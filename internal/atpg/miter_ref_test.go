package atpg

import (
	"encoding/binary"
	"fmt"
	"slices"

	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sat"
)

// This file keeps the named-netlist miter and the netlist encoder the
// production miterSolver and coneEncoder replaced. They are the reference
// the encoder identity tests compare the production path against: the
// same gate ids, the same Kahn order, the same variables and clauses.

// BuildMiter constructs the distinguishing miter of two faults over a
// combinational circuit as a named netlist: two copies of the circuit
// sharing the primary inputs, with fa injected in copy A and fb in copy
// B, every output pair XORed and the XORs ORed into a single output.
// Copy gates are named a_<name> and b_<name>. The miter's primary inputs
// are in the same order as c's, so test cubes found on the miter apply
// directly to c.
func BuildMiter(c *netlist.Circuit, fa, fb fault.Fault) (*netlist.Circuit, error) {
	return buildMiter(c, &fa, &fb, fmt.Sprintf("miter(%s,%s)", fa.Name(c), fb.Name(c)))
}

// BuildDetectionMiter constructs the miter of the fault-free circuit and a
// copy with f injected: inputs driving its output to 1 are exactly the
// tests detecting f.
func BuildDetectionMiter(c *netlist.Circuit, f fault.Fault) (*netlist.Circuit, error) {
	return buildMiter(c, nil, &f, fmt.Sprintf("detect(%s)", f.Name(c)))
}

// buildMiter builds a two-copy XOR/OR miter; a nil fault leaves that copy
// fault-free. Every copy line is known before any fanin is wired, and each
// copy input reads the miter input of its own slot, so gates that read a
// line declared after them (as .bench files allow) are wired right.
func buildMiter(c *netlist.Circuit, fa, fb *fault.Fault, name string) (*netlist.Circuit, error) {
	if len(c.DFFs) != 0 {
		return nil, fmt.Errorf("atpg: miter requires a combinational circuit")
	}
	b := netlist.NewBuilder(name)
	pis := make([]int32, len(c.Gates))
	for _, pi := range c.PIs {
		pis[pi] = b.Input(c.Gates[pi].Name)
	}

	// copyInto adds one (possibly faulty) copy of the circuit and returns
	// its primary output lines.
	copyInto := func(tag string, f *fault.Fault) []int32 {
		var konst int32
		if f != nil {
			konst = b.Const(fmt.Sprintf("%s_sa%d", tag, f.Stuck), int(f.Stuck))
		}
		lineOf := make([]int32, len(c.Gates)) // value line seen by readers of each gate
		next := int32(b.NumGates())
		for i := range c.Gates {
			if c.Gates[i].Type == netlist.Input {
				lineOf[i] = pis[i]
			} else {
				lineOf[i] = next
				next++
			}
		}
		if f != nil && f.IsStem() {
			lineOf[f.Gate] = konst
		}
		for i := range c.Gates {
			g := &c.Gates[i]
			if g.Type == netlist.Input {
				continue
			}
			fanin := make([]int32, len(g.Fanin))
			for pin, d := range g.Fanin {
				if f != nil && !f.IsStem() && f.Gate == int32(i) && int32(pin) == f.Pin {
					fanin[pin] = konst
				} else {
					fanin[pin] = lineOf[d]
				}
			}
			b.Gate(g.Type, tag+"_"+g.Name, fanin...)
		}
		outs := make([]int32, len(c.POs))
		for oi, po := range c.POs {
			outs[oi] = lineOf[po]
		}
		return outs
	}

	outsA := copyInto("a", fa)
	outsB := copyInto("b", fb)

	// XOR per output, then an OR tree.
	xors := make([]int32, len(outsA))
	for i := range outsA {
		xors[i] = b.Gate(netlist.Xor, fmt.Sprintf("x%d", i), outsA[i], outsB[i])
	}
	for len(xors) > 1 {
		var next []int32
		for i := 0; i < len(xors); i += 2 {
			if i+1 < len(xors) {
				next = append(next, b.Gate(netlist.Or, "", xors[i], xors[i+1]))
			} else {
				next = append(next, xors[i])
			}
		}
		xors = next
	}
	b.Output(xors[0])
	return b.Build()
}

// flatOf returns combinational circuit c as a flatNet over its scan
// inputs.
func flatOf(c *netlist.Circuit) (*flatNet, error) {
	if len(c.DFFs) != 0 {
		return nil, fmt.Errorf("atpg: SAT solving requires a combinational circuit")
	}
	n := &flatNet{}
	n.reset()
	for i := range c.Gates {
		n.add(c.Gates[i].Type, c.Gates[i].Fanin...)
	}
	n.inputs = append(n.inputs, netlist.NewScanView(c).Inputs...)
	return n, nil
}

// solveOutputOne finds, through the production coneEncoder, an input
// vector driving the given gate of combinational circuit c to 1, or
// proves none exists, and returns the solver's conflict count. The
// vector is over c's scan inputs; inputs outside the cone stay X.
func solveOutputOne(c *netlist.Circuit, target int32, conflictBudget int64) (pattern.Vector, Status, int64, error) {
	n, err := flatOf(c)
	if err != nil {
		return nil, Aborted, 0, err
	}
	var e coneEncoder
	vec, status, conflicts := e.solve(n, target, conflictBudget)
	return vec, status, conflicts, nil
}

// clauseSink receives a CNF: a *sat.Solver, or a cnfRecorder.
type clauseSink interface {
	AddVar() int
	AddClause(lits ...sat.Lit) bool
}

// cnfRecorder records the variables and clauses given to it, in order.
type cnfRecorder struct {
	vars    int
	clauses [][]sat.Lit
}

func (r *cnfRecorder) AddVar() int {
	r.vars++
	return r.vars - 1
}

func (r *cnfRecorder) AddClause(lits ...sat.Lit) bool {
	r.clauses = append(r.clauses, slices.Clone(lits))
	return true
}

// refSolveOutputOne is solveOutputOne as it stood with the netlist
// encoder: encodeCone straight into a growing solver.
func refSolveOutputOne(c *netlist.Circuit, target int32, conflictBudget int64) (pattern.Vector, Status, int64) {
	s := sat.NewSolver(0)
	varOf := encodeCone(s, c, target)
	s.AddClause(sat.MkLit(varOf[target], false))
	result := s.Solve(conflictBudget)
	_, conflicts := s.Stats()
	switch result {
	case sat.Unsat:
		return nil, Untestable, conflicts
	case sat.Unknown:
		return nil, Aborted, conflicts
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
	return vec, Success, conflicts
}

// encodeCone is the netlist encoder the coneEncoder replaced: it
// Tseitin-encodes the fanin cone of target into s with structural
// hashing keyed by built strings, visiting gates in c.Order(), and
// returns each gate's variable (-1 outside the cone).
func encodeCone(s clauseSink, c *netlist.Circuit, target int32) []int {
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

	varOf := make([]int, len(c.Gates))
	for i := range varOf {
		varOf[i] = -1
	}
	hashed := make(map[string]int)
	var key []byte
	var in []int
	for _, g := range c.Order() {
		if !inCone[g] {
			continue
		}
		gate := &c.Gates[g]
		if gate.Type == netlist.Input {
			varOf[g] = s.AddVar()
			continue
		}
		key = append(key[:0], byte(gate.Type))
		in = in[:0]
		for _, d := range gate.Fanin {
			key = binary.AppendUvarint(key, uint64(varOf[d]))
			in = append(in, varOf[d])
		}
		if v, ok := hashed[string(key)]; ok {
			varOf[g] = v
			continue
		}
		v := s.AddVar()
		varOf[g] = v
		hashed[string(key)] = v
		encodeGate(s, gate.Type, v, in)
	}
	return varOf
}

// encodeGate adds the clauses of variable out <-> type(in...).
func encodeGate(s clauseSink, t netlist.GateType, out int, in []int) {
	o, no := sat.MkLit(out, false), sat.MkLit(out, true)
	switch t {
	case netlist.Const0:
		s.AddClause(no)
	case netlist.Const1:
		s.AddClause(o)
	case netlist.Buf, netlist.Not:
		inv := t == netlist.Not
		// out <-> (inv ? ¬d : d)
		s.AddClause(no, sat.MkLit(in[0], inv))
		s.AddClause(o, sat.MkLit(in[0], !inv))
	case netlist.And, netlist.Nand:
		if t == netlist.Nand {
			o, no = no, o
		}
		// o -> every input; (¬in_i for some i) -> ¬o
		all := []sat.Lit{o}
		for _, d := range in {
			s.AddClause(no, sat.MkLit(d, false))
			all = append(all, sat.MkLit(d, true))
		}
		s.AddClause(all...)
	case netlist.Or, netlist.Nor:
		if t == netlist.Nor {
			o, no = no, o
		}
		all := []sat.Lit{no}
		for _, d := range in {
			s.AddClause(o, sat.MkLit(d, true))
			all = append(all, sat.MkLit(d, false))
		}
		s.AddClause(all...)
	case netlist.Xor, netlist.Xnor:
		// Chain pairwise XOR through auxiliary variables; for XNOR the
		// final link is an XNOR, since ¬(x1⊕…⊕xn) = XNOR(x1⊕…⊕xn-1, xn).
		cur := in[0]
		for k := 1; k < len(in); k++ {
			last := k == len(in)-1
			next := out
			if !last {
				next = s.AddVar()
			}
			if last && t == netlist.Xnor {
				encodeXnor(s, next, cur, in[k])
			} else {
				encodeXor(s, next, cur, in[k])
			}
			cur = next
		}
	}
}

// encodeXor adds clauses for o <-> a XOR b.
func encodeXor(s clauseSink, o, a, b int) {
	O, A, B := sat.MkLit(o, false), sat.MkLit(a, false), sat.MkLit(b, false)
	NO, NA, NB := O.Not(), A.Not(), B.Not()
	s.AddClause(NO, A, B)
	s.AddClause(NO, NA, NB)
	s.AddClause(O, NA, B)
	s.AddClause(O, A, NB)
}

// encodeXnor adds clauses for o <-> (a == b).
func encodeXnor(s clauseSink, o, a, b int) {
	O, A, B := sat.MkLit(o, false), sat.MkLit(a, false), sat.MkLit(b, false)
	NO, NA, NB := O.Not(), A.Not(), B.Not()
	s.AddClause(NO, A, NB)
	s.AddClause(NO, NA, B)
	s.AddClause(O, A, B)
	s.AddClause(O, NA, NB)
}
