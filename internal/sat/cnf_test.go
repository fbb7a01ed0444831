package sat

import (
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/netlist"
)

// cnf is a formula in the order its clauses are added to a solver.
type cnf struct {
	vars    int
	clauses [][]Lit
}

func (f *cnf) newVar() int {
	f.vars++
	return f.vars - 1
}

func (f *cnf) add(lits ...Lit) { f.clauses = append(f.clauses, lits) }

// randomCNF draws a formula of nc clauses of width minWidth..maxWidth over
// nv variables.
func randomCNF(r *rand.Rand, nv, nc, minWidth, maxWidth int) cnf {
	f := cnf{vars: nv}
	for i := 0; i < nc; i++ {
		c := make([]Lit, minWidth+r.Intn(maxWidth-minWidth+1))
		for k := range c {
			c[k] = MkLit(r.Intn(nv), r.Intn(2) == 0)
		}
		f.add(c...)
	}
	return f
}

// miterCNF Tseitin-encodes the two-copy miter of the combinational circuit
// c: copy A carries fa and copy B carries fb (nil leaves a copy
// fault-free), the copies share their inputs, and the formula asserts that
// some output pair differs. A model is a vector distinguishing fa from fb
// (or detecting fb when fa is nil). The gate clauses have the shapes the
// test generator's encoder emits.
func miterCNF(c *netlist.Circuit, fa, fb *fault.Fault) cnf {
	var f cnf
	pi := make([]int, len(c.Gates))
	for _, g := range c.PIs {
		pi[g] = f.newVar()
	}
	copyOf := func(flt *fault.Fault) []int {
		konst := -1
		if flt != nil {
			konst = f.newVar()
			f.add(MkLit(konst, flt.Stuck == 0))
		}
		line := make([]int, len(c.Gates)) // variable read by the fanout of each gate
		for _, g := range c.Order() {
			gate := &c.Gates[g]
			out := pi[g]
			if gate.Type != netlist.Input {
				in := make([]int, len(gate.Fanin))
				for pin, d := range gate.Fanin {
					in[pin] = line[d]
					if flt != nil && flt.Gate == g && flt.Pin == int32(pin) {
						in[pin] = konst
					}
				}
				out = f.newVar()
				f.encodeGate(gate.Type, out, in)
			}
			line[g] = out
			if flt != nil && flt.IsStem() && flt.Gate == g {
				line[g] = konst
			}
		}
		return line
	}
	a, b := copyOf(fa), copyOf(fb)
	differ := make([]Lit, len(c.POs))
	for i, o := range c.POs {
		x := f.newVar()
		f.encodeGate(netlist.Xor, x, []int{a[o], b[o]})
		differ[i] = MkLit(x, false)
	}
	f.add(differ...)
	return f
}

// encodeGate adds the clauses of out <-> type(in...).
func (f *cnf) encodeGate(t netlist.GateType, out int, in []int) {
	o, no := MkLit(out, false), MkLit(out, true)
	switch t {
	case netlist.Const0:
		f.add(no)
	case netlist.Const1:
		f.add(o)
	case netlist.Buf, netlist.Not:
		inv := t == netlist.Not
		f.add(no, MkLit(in[0], inv))
		f.add(o, MkLit(in[0], !inv))
	case netlist.And, netlist.Nand:
		if t == netlist.Nand {
			o, no = no, o
		}
		all := []Lit{o}
		for _, d := range in {
			f.add(no, MkLit(d, false))
			all = append(all, MkLit(d, true))
		}
		f.add(all...)
	case netlist.Or, netlist.Nor:
		if t == netlist.Nor {
			o, no = no, o
		}
		all := []Lit{no}
		for _, d := range in {
			f.add(o, MkLit(d, true))
			all = append(all, MkLit(d, false))
		}
		f.add(all...)
	case netlist.Xor, netlist.Xnor:
		cur := in[0]
		for k := 1; k < len(in); k++ {
			next := out
			if k < len(in)-1 {
				next = f.newVar()
			}
			O, A, B := MkLit(next, false), MkLit(cur, false), MkLit(in[k], false)
			if k == len(in)-1 && t == netlist.Xnor {
				O = O.Not()
			}
			f.add(O.Not(), A, B)
			f.add(O.Not(), A.Not(), B.Not())
			f.add(O, A.Not(), B)
			f.add(O, A, B.Not())
			cur = next
		}
	default:
		panic("miterCNF: unsupported gate " + t.String())
	}
}

// bruteForce reports whether some assignment of f's (few) variables
// satisfies every clause.
func bruteForce(f cnf) bool {
	for m := uint32(0); m < 1<<uint(f.vars); m++ {
		ok := true
		for _, c := range f.clauses {
			sat := false
			for _, l := range c {
				if bit := m>>uint(l.Var())&1 == 1; bit != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// checkVerdict checks a solver's final verdict on f against brute force,
// and a Sat model against every clause.
func checkVerdict(t *testing.T, name string, f cnf, s *Solver, got Result) {
	t.Helper()
	want := bruteForce(f)
	if want && got != Sat || !want && got != Unsat {
		t.Fatalf("%s: solver says %v, brute force says satisfiable=%v", name, got, want)
	}
	if got != Sat {
		return
	}
	for ci, c := range f.clauses {
		ok := false
		for _, l := range c {
			if s.Value(l.Var()) != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: model violates clause %d %v", name, ci, c)
		}
	}
}

// newSolverFor returns a solver loaded with f's clauses.
func newSolverFor(f cnf) *Solver {
	s := NewSolver(f.vars)
	for _, c := range f.clauses {
		s.AddClause(c...)
	}
	return s
}

// checkBruteForce solves f and checks the verdict against exhaustive
// enumeration and a Sat model against every clause.
func checkBruteForce(t *testing.T, name string, f cnf) {
	t.Helper()
	s := newSolverFor(f)
	checkVerdict(t, name, f, s, s.Solve(0))
}
