package sat

import (
	"fmt"
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/netlist"
)

func TestLitBasics(t *testing.T) {
	l := MkLit(5, false)
	if l.Var() != 5 || l.Neg() {
		t.Fatal("positive literal wrong")
	}
	n := l.Not()
	if n.Var() != 5 || !n.Neg() || n.Not() != l {
		t.Fatal("negation wrong")
	}
}

func TestTrivial(t *testing.T) {
	s := NewSolver(2)
	s.AddClause(MkLit(0, false))                 // x0
	s.AddClause(MkLit(0, true), MkLit(1, false)) // ¬x0 ∨ x1
	if got := s.Solve(0); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	if !s.Value(0) || !s.Value(1) {
		t.Fatalf("model wrong: %v %v", s.Value(0), s.Value(1))
	}
}

func TestContradiction(t *testing.T) {
	s := NewSolver(1)
	s.AddClause(MkLit(0, false))
	s.AddClause(MkLit(0, true))
	if got := s.Solve(0); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

func TestEmptyClauseRejected(t *testing.T) {
	s := NewSolver(1)
	if s.AddClause() {
		t.Fatal("empty clause accepted")
	}
	if got := s.Solve(0); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := NewSolver(2)
	s.AddClause(MkLit(0, false), MkLit(0, true)) // tautology: ignored
	s.AddClause(MkLit(1, false), MkLit(1, false), MkLit(0, false))
	if got := s.Solve(0); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
}

// pigeonhole(n) encodes n+1 pigeons into n holes — classically UNSAT and a
// workout for clause learning.
func pigeonhole(n int) *Solver {
	vars := (n + 1) * n // p*n + h: pigeon p in hole h
	s := NewSolver(vars)
	v := func(p, h int) Lit { return MkLit(p*n+h, false) }
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = v(p, h)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	return s
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 5; n++ {
		s := pigeonhole(n)
		if got := s.Solve(0); got != Unsat {
			t.Fatalf("PHP(%d): %v, want unsat", n, got)
		}
	}
}

func TestPigeonExactFitSat(t *testing.T) {
	// n pigeons in n holes is satisfiable: drop pigeon n's clauses by
	// building a permutation instance directly.
	n := 5
	s := NewSolver(n * n)
	v := func(p, h int) Lit { return MkLit(p*n+h, false) }
	for p := 0; p < n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = v(p, h)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(v(p1, h).Not(), v(p2, h).Not())
			}
		}
	}
	if got := s.Solve(0); got != Sat {
		t.Fatalf("%v, want sat", got)
	}
	// Verify the model is a valid assignment: every pigeon somewhere, no
	// hole shared.
	used := make([]int, n)
	for p := 0; p < n; p++ {
		cnt := 0
		for h := 0; h < n; h++ {
			if s.Value(p*n + h) {
				cnt++
				used[h]++
			}
		}
		if cnt < 1 {
			t.Fatalf("pigeon %d unplaced", p)
		}
	}
	for h, u := range used {
		if u > 1 {
			t.Fatalf("hole %d shared by %d pigeons", h, u)
		}
	}
}

// TestRandomCNFMatchesBruteForce cross-validates the solver against
// exhaustive enumeration on small random 3-CNF instances, both
// satisfiable and unsatisfiable. FuzzSolveMatchesBruteForce explores the
// same check beyond these fixed draws.
func TestRandomCNFMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 400; trial++ {
		nv := 3 + r.Intn(10)
		nc := 2 + r.Intn(6*nv)
		checkBruteForce(t, fmt.Sprintf("trial %d", trial), randomCNF(r, nv, nc, 1, 3))
	}
}

// maxFuzzVars bounds fuzzed formulas so brute force stays cheap.
const maxFuzzVars = 14

// decodeFuzzCNF reads a fuzz input: the first byte picks 1..maxFuzzVars
// variables, each later byte is a literal (variable b>>1 modulo the
// count, negated when b is odd), and 0xff closes a clause.
func decodeFuzzCNF(data []byte) cnf {
	f := cnf{vars: 1 + int(data[0])%maxFuzzVars}
	var c []Lit
	for _, b := range data[1:] {
		if b == 0xff {
			f.add(c...)
			c = nil
			continue
		}
		c = append(c, MkLit(int(b>>1)%f.vars, b&1 == 1))
	}
	if len(c) > 0 {
		f.add(c...)
	}
	return f
}

// encodeFuzzCNF is the inverse of decodeFuzzCNF.
func encodeFuzzCNF(f cnf) []byte {
	if f.vars > maxFuzzVars {
		panic(fmt.Sprintf("encodeFuzzCNF: %d variables, at most %d encode", f.vars, maxFuzzVars))
	}
	data := []byte{byte(f.vars - 1)}
	for _, c := range f.clauses {
		for _, l := range c {
			data = append(data, byte(l))
		}
		data = append(data, 0xff)
	}
	return data
}

// tinyCircuit is a three-input, three-gate circuit whose miters fit under
// maxFuzzVars.
func tinyCircuit() *netlist.Circuit {
	b := netlist.NewBuilder("tiny")
	a, x, y := b.Input("a"), b.Input("b"), b.Input("c")
	n1 := b.Gate(netlist.Nand, "n1", a, x)
	n2 := b.Gate(netlist.Nor, "n2", n1, y)
	n3 := b.Gate(netlist.Xor, "n3", a, n2)
	b.Output(n2)
	b.Output(n3)
	return b.MustBuild()
}

// FuzzSolveMatchesBruteForce checks the solver's verdict against brute
// force and its model against every clause on arbitrary small formulas,
// seeded with TestRandomCNFMatchesBruteForce's shapes and with detection
// and pair miters of a tiny circuit.
func FuzzSolveMatchesBruteForce(f *testing.F) {
	r := rand.New(rand.NewSource(55))
	for i := 0; i < 8; i++ {
		nv := 3 + r.Intn(10)
		f.Add(encodeFuzzCNF(randomCNF(r, nv, 2+r.Intn(6*nv), 1, 3)))
	}
	c := tinyCircuit()
	n1sa0 := fault.Fault{Gate: c.GateByName("n1"), Pin: fault.StemPin, Stuck: 0}
	n2pin := fault.Fault{Gate: c.GateByName("n2"), Pin: 1, Stuck: 1}
	n3sa1 := fault.Fault{Gate: c.GateByName("n3"), Pin: fault.StemPin, Stuck: 1}
	f.Add(encodeFuzzCNF(miterCNF(c, nil, &n1sa0)))
	f.Add(encodeFuzzCNF(miterCNF(c, nil, &n2pin)))
	f.Add(encodeFuzzCNF(miterCNF(c, &n1sa0, &n3sa1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			t.Skip()
		}
		checkBruteForce(t, "fuzz", decodeFuzzCNF(data))
	})
}

func TestConflictBudget(t *testing.T) {
	s := pigeonhole(8) // hard enough to exceed a tiny budget
	if got := s.Solve(5); got != Unknown {
		t.Fatalf("Solve with 5-conflict budget = %v, want unknown", got)
	}
}

// TestSolveResumesAfterBudgetOut: a Solve that runs out of budget stops
// mid-search; a later Solve on the same solver must still reach the
// correct verdict.
func TestSolveResumesAfterBudgetOut(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	resumed := 0
	for trial := 0; trial < 300; trial++ {
		nv := 12 + r.Intn(3)
		f := randomCNF(r, nv, nv*4+r.Intn(nv/2), 3, 3)
		s := newSolverFor(f)
		got := s.Solve(1 + int64(r.Intn(4)))
		if got == Unknown {
			resumed++
			got = s.Solve(0)
		}
		checkVerdict(t, fmt.Sprintf("trial %d", trial), f, s, got)
	}
	if resumed == 0 {
		t.Fatal("no Solve ran out of budget; the test exercised nothing")
	}
}

func TestAddVar(t *testing.T) {
	s := NewSolver(1)
	v := s.AddVar()
	if v != 1 || s.NumVars() != 2 {
		t.Fatalf("AddVar gave %d, NumVars %d", v, s.NumVars())
	}
	s.AddClause(MkLit(v, false))
	if s.Solve(0) != Sat || !s.Value(v) {
		t.Fatal("fresh variable unusable")
	}
}

// scanDecide is the linear-scan decision rule the order heap replaces:
// the unassigned variable of highest activity, lowest index among equals.
func scanDecide(s *Solver) (Lit, bool) {
	best := -1
	var bestAct float64 = -1
	for v, act := range s.activity {
		if act > bestAct && s.varValue(v) == lUndef {
			best, bestAct = v, act
		}
	}
	if best < 0 {
		return 0, false
	}
	return MkLit(best, s.phase[best] != lTrue), true
}

// TestDecideMatchesScan drives the solver's activity and trail machinery
// through random bump, assign, cancel and rescale sequences and requires
// every decide to pick exactly what scanDecide picks. Bumps reuse a few
// increments so activities tie, and some set varInc near 1e100 so the
// next bump forces the rescale.
func TestDecideMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	checks, rescales := 0, 0
	for trial := 0; trial < 400; trial++ {
		s := NewSolver(r.Intn(30))
		for k := r.Intn(5); k > 0; k-- {
			s.AddVar()
		}
		n := s.NumVars()
		if n == 0 {
			continue
		}
		for step := 0; step < 300; step++ {
			switch op := r.Intn(10); {
			case op < 4: // bump
				switch r.Intn(8) {
				case 0:
					s.varInc = 1e99 * (1 + 9*r.Float64())
				case 1:
					s.varInc /= 0.95
				}
				before := s.varInc
				s.bumpVar(r.Intn(n))
				if s.varInc != before {
					rescales++
				}
			case op < 7: // assign at a new decision level
				v := r.Intn(n)
				if s.varValue(v) == lUndef {
					s.lim = append(s.lim, len(s.trail))
					s.enqueue(MkLit(v, r.Intn(2) == 0), noReason)
				}
			case op < 8: // backtrack
				s.cancelUntil(r.Intn(len(s.lim) + 1))
			default: // decide, as Solve does
				want, wok := scanDecide(s)
				got, gok := s.decide()
				if got != want || gok != wok {
					t.Fatalf("trial %d step %d: decide = %v,%v, scan = %v,%v", trial, step, got, gok, want, wok)
				}
				checks++
				if gok {
					s.lim = append(s.lim, len(s.trail))
					s.enqueue(got, noReason)
				}
			}
		}
	}
	if checks == 0 || rescales == 0 {
		t.Fatalf("%d checks, %d rescales: the test exercised nothing", checks, rescales)
	}
	t.Logf("%d decisions checked, %d rescales", checks, rescales)
}
