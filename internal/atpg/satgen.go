package atpg

import (
	"encoding/binary"
	"fmt"

	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sat"
)

// solveOutputOne finds, via SAT, an input vector driving the given gate of
// a combinational circuit to 1, or proves none exists, and returns the
// solver's conflict count. It Tseitin-encodes the gate's fanin cone with
// structural hashing (encodeCone) and returns the vector over the
// circuit's scan inputs (inputs outside the cone stay X). The conflict
// budget bounds the effort; 0 uses the solver default.
//
// This is the complete decision procedure behind the SAT fallback for
// pair distinguishing: structural PODEM aborts become definitive answers.
func solveOutputOne(c *netlist.Circuit, target int32, conflictBudget int64) (pattern.Vector, Status, int64, error) {
	if len(c.DFFs) != 0 {
		return nil, Aborted, 0, fmt.Errorf("atpg: SAT solving requires a combinational circuit")
	}
	s := sat.NewSolver(0)
	varOf := encodeCone(s, c, target)
	s.AddClause(sat.MkLit(varOf[target], false))
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

// encodeCone Tseitin-encodes the fanin cone of target into s with
// structural hashing and returns each gate's variable (-1 outside the
// cone). Gates are visited in topological order and keyed by their type
// and ordered fanin variables; a gate whose key is already encoded reuses
// that variable and adds no clauses. Inputs are never merged. Both copies
// of a miter read the same inputs, so every gate outside the faults'
// fanout cones merges with its twin, and the solver reasons only about the
// cones instead of re-deriving, conflict by conflict, that the copies
// agree elsewhere.
func encodeCone(s *sat.Solver, c *netlist.Circuit, target int32) []int {
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
func encodeGate(s *sat.Solver, t netlist.GateType, out int, in []int) {
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

// solveMiter solves for the miter's output and re-simulates a Success
// model on the original circuit with holds (VectorDetects or
// Distinguishes for the miter's faults). It also returns the solver's
// conflict count. A model that fails the check is
// returned as Aborted with mismatch set, so a solver or encoder bug costs
// a test instead of shaping a dictionary. The model's X inputs lie outside
// the miter's cone, so the check fills them with 0 without affecting its
// verdict.
func solveMiter(miter *netlist.Circuit, budget int64, holds func(pattern.Vector) bool) (cube pattern.Vector, status Status, conflicts int64, mismatch bool, err error) {
	cube, status, conflicts, err = solveOutputOne(miter, miter.POs[0], budget)
	if err != nil || status != Success {
		return cube, status, conflicts, false, err
	}
	filled := cube.Clone()
	for i, v := range filled {
		if v == logic.X {
			filled[i] = logic.Zero
		}
	}
	if !holds(filled) {
		return nil, Aborted, conflicts, true, nil
	}
	return cube, Success, conflicts, false, nil
}

func boolToBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// encodeXor adds clauses for o <-> a XOR b.
func encodeXor(s *sat.Solver, o, a, b int) {
	O, A, B := sat.MkLit(o, false), sat.MkLit(a, false), sat.MkLit(b, false)
	NO, NA, NB := O.Not(), A.Not(), B.Not()
	s.AddClause(NO, A, B)
	s.AddClause(NO, NA, NB)
	s.AddClause(O, NA, B)
	s.AddClause(O, A, NB)
}

// encodeXnor adds clauses for o <-> (a == b).
func encodeXnor(s *sat.Solver, o, a, b int) {
	O, A, B := sat.MkLit(o, false), sat.MkLit(a, false), sat.MkLit(b, false)
	NO, NA, NB := O.Not(), A.Not(), B.Not()
	s.AddClause(NO, A, NB)
	s.AddClause(NO, NA, B)
	s.AddClause(O, A, B)
	s.AddClause(O, NA, NB)
}
