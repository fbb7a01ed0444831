package sat

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
)

// matchReference solves f with the solver and with refSolver under the
// same conflict budget and requires the same AddClause answers, the same
// Result, the same conflict count and, on Sat, the same value of every
// variable.
func matchReference(t *testing.T, name string, f cnf, budget int64) {
	t.Helper()
	s, ref := NewSolver(f.vars), newRefSolver(f.vars)
	for ci, c := range f.clauses {
		if got, want := s.AddClause(c...), ref.AddClause(c...); got != want {
			t.Fatalf("%s: AddClause #%d = %v, reference %v", name, ci, got, want)
		}
	}
	got, want := s.Solve(budget), ref.Solve(budget)
	if got != want {
		t.Fatalf("%s: Solve = %v, reference %v", name, got, want)
	}
	if _, c := s.Stats(); c != ref.conflicts {
		t.Fatalf("%s: %d conflicts, reference %d", name, c, ref.conflicts)
	}
	// The scratch marks of analyze and reduceDB must be clear between
	// calls, or a later conflict or reduction sees stale state.
	for v, marked := range s.seen {
		if marked {
			t.Fatalf("%s: variable %d left marked seen", name, v)
		}
	}
	for ci, c := range s.clauses {
		if c.locked {
			t.Fatalf("%s: clause %d left marked locked", name, ci)
		}
	}
	if got != Sat {
		return
	}
	for v := 0; v < f.vars; v++ {
		if s.Value(v) != ref.Value(v) {
			t.Fatalf("%s: variable %d = %v, reference %v", name, v, s.Value(v), ref.Value(v))
		}
	}
}

// TestSolverMatchesReference pins the solver's search to the reference
// copy below: random formulas from trivial to past the learned-clause
// limit (restarts, clause-database reduction, budget-outs), pigeonhole
// instances, and Tseitin-encoded detection and pair miters of c17, s27 and
// a fixed sample of s208 pairs.
func TestSolverMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		nv := 3 + r.Intn(10)
		matchReference(t, fmt.Sprintf("small %d", trial), randomCNF(r, nv, 2+r.Intn(6*nv), 1, 3), 0)
	}
	for trial := 0; trial < 100; trial++ {
		nv := 20 + r.Intn(60)
		matchReference(t, fmt.Sprintf("3-sat %d", trial), randomCNF(r, nv, nv*4+r.Intn(nv/2), 3, 3), 0)
	}
	if !testing.Short() {
		for trial := 0; trial < 2; trial++ {
			matchReference(t, fmt.Sprintf("hard 3-sat %d", trial), randomCNF(r, 230, 980, 3, 3), 9000)
		}
	}
	for n := 3; n <= 8; n++ {
		var f cnf
		f.vars = (n + 1) * n
		for p := 0; p <= n; p++ {
			var c []Lit
			for h := 0; h < n; h++ {
				c = append(c, MkLit(p*n+h, false))
			}
			f.add(c...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					f.add(MkLit(p1*n+h, true), MkLit(p2*n+h, true))
				}
			}
		}
		matchReference(t, fmt.Sprintf("PHP(%d)", n), f, 6000)
	}

	// Every detection and pair miter of c17 and s27; a sample of s208
	// pairs.
	for _, c := range []*netlist.Circuit{gen.C17(), netlist.Combinationalize(gen.Profiles["s27"].MustGenerate(2))} {
		faults := fault.Collapse(c).Faults
		for i := range faults {
			matchReference(t, fmt.Sprintf("%s detect %s", c.Name, faults[i].Name(c)), miterCNF(c, nil, &faults[i]), 8000)
			for j := i + 1; j < len(faults); j++ {
				name := fmt.Sprintf("%s pair %s/%s", c.Name, faults[i].Name(c), faults[j].Name(c))
				matchReference(t, name, miterCNF(c, &faults[i], &faults[j]), 8000)
			}
		}
	}
	c := netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(2))
	faults := fault.Collapse(c).Faults
	for i := 0; i < len(faults); i += 7 {
		for j := i + 1; j < len(faults); j += 61 {
			name := fmt.Sprintf("s208 pair %s/%s", faults[i].Name(c), faults[j].Name(c))
			matchReference(t, name, miterCNF(c, &faults[i], &faults[j]), 8000)
		}
	}
}

// Everything below is the reference solver: the solver as it stood before
// the persistent propagation head, the map-free conflict analysis and the
// per-literal value array, copied verbatim with its types renamed. Those
// changes must leave every verdict, model and conflict count unchanged; do
// not edit this copy to make a comparison pass.

type refClause struct {
	lits    []Lit
	learned bool
	deleted bool
}

// refSolver is a CDCL SAT solver. Create with newRefSolver, add clauses, then
// call Solve. Not safe for concurrent use.
type refSolver struct {
	clauses []*refClause
	watches [][]*refClause // literal -> clauses watching it

	assign []int8  // per variable: lTrue/lFalse/lUndef
	level  []int32 // decision level of the assignment
	reason []*refClause
	trail  []Lit
	lim    []int // trail indices at each decision level

	activity  []float64
	varInc    float64
	phase     []int8 // saved phase per variable
	unsatable bool   // an empty clause was added

	propagations int64
	conflicts    int64

	learnedCount int
	maxLearned   int
}

// newRefSolver returns a solver over numVars variables (indices 0..numVars-1).
func newRefSolver(numVars int) *refSolver {
	s := &refSolver{
		watches:    make([][]*refClause, 2*numVars),
		assign:     make([]int8, numVars),
		level:      make([]int32, numVars),
		reason:     make([]*refClause, numVars),
		activity:   make([]float64, numVars),
		phase:      make([]int8, numVars),
		varInc:     1,
		maxLearned: 4000,
	}
	for i := range s.phase {
		s.phase[i] = lFalse
	}
	return s
}

// NumVars returns the variable count.
func (s *refSolver) NumVars() int { return len(s.assign) }

// AddVar appends a fresh variable and returns its index.
func (s *refSolver) AddVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, lFalse)
	s.watches = append(s.watches, nil, nil)
	return v
}

func (s *refSolver) litValue(l Lit) int8 {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		return -v
	}
	return v
}

// AddClause adds a clause (given at decision level 0). Duplicate literals
// are removed; tautologies are ignored. Returns false if the formula is
// already contradictory.
func (s *refSolver) AddClause(lits ...Lit) bool {
	if s.unsatable {
		return false
	}
	// Normalize: sort-free dedup, tautology check, drop false lits / keep
	// undecided and true ones (only root-level assignments exist now).
	out := lits[:0:0]
	for _, l := range lits {
		switch s.litValue(l) {
		case lTrue:
			return true // satisfied forever (root level)
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				taut = true
				break
			}
		}
		if taut {
			return true
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsatable = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsatable = true
			return false
		}
		if s.propagate() != nil {
			s.unsatable = true
			return false
		}
		return true
	}
	c := &refClause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *refSolver) watch(c *refClause) {
	// Watch the first two literals.
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

// enqueue assigns a literal true with the given reason clause.
func (s *refSolver) enqueue(l Lit, from *refClause) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(len(s.lim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; it returns the conflicting clause
// or nil.
func (s *refSolver) propagate() *refClause {
	for qhead := 0; qhead < len(s.trail); qhead++ {
		p := s.trail[qhead]
		s.propagations++
		// Clauses watching ¬p must find a new watch or propagate.
		ws := s.watches[p]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			if c.deleted {
				continue // lazily dropped from the watch list
			}
			// Ensure lits[1] is the false literal (¬p ... p.Not()).
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litValue(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			kept = append(kept, c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: keep the remaining watchers and report.
				kept = append(kept, ws[wi+1:]...)
				s.watches[p] = kept
				return c
			}
		}
		s.watches[p] = kept
	}
	return nil
}

func (s *refSolver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze derives a first-UIP learned clause from the conflict and returns
// it with the backtrack level.
func (s *refSolver) analyze(confl *refClause) ([]Lit, int) {
	learned := []Lit{0} // slot 0 reserved for the asserting literal
	seen := make(map[int]bool)
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	curLevel := int32(len(s.lim))

	reasonLits := func(c *refClause, skip Lit) []Lit {
		if skip < 0 {
			return c.lits
		}
		return c.lits[1:] // lits[0] is the asserting literal of the reason
	}

	c := confl
	for {
		for _, q := range reasonLits(c, p) {
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == curLevel {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Select the next trail literal at the current level.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter <= 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learned[0] = p.Not()

	// Backtrack level: the highest level among the other literals.
	back := 0
	for i := 1; i < len(learned); i++ {
		if l := int(s.level[learned[i].Var()]); l > back {
			back = l
		}
	}
	// Move a literal of the backtrack level into watch position 1.
	for i := 1; i < len(learned); i++ {
		if int(s.level[learned[i].Var()]) == back {
			learned[1], learned[i] = learned[i], learned[1]
			break
		}
	}
	return learned, back
}

// cancelUntil undoes assignments above the given decision level.
func (s *refSolver) cancelUntil(level int) {
	if len(s.lim) <= level {
		return
	}
	bound := s.lim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v]
		s.assign[v] = lUndef
		s.reason[v] = nil
	}
	s.trail = s.trail[:bound]
	s.lim = s.lim[:level]
}

// decide picks the unassigned variable with the highest activity.
func (s *refSolver) decide() (Lit, bool) {
	best := -1
	var bestAct float64 = -1
	for v := 0; v < len(s.assign); v++ {
		if s.assign[v] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	if best < 0 {
		return 0, false
	}
	return MkLit(best, s.phase[best] != lTrue), true
}

// Solve runs the CDCL loop with the given conflict budget (0 = default of
// one million conflicts). On Sat, Value reports the model.
func (s *refSolver) Solve(conflictBudget int64) Result {
	if s.unsatable {
		return Unsat
	}
	if conflictBudget <= 0 {
		conflictBudget = 1 << 20
	}
	if confl := s.propagate(); confl != nil {
		return Unsat
	}
	restartLimit := int64(100)
	sinceRestart := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			sinceRestart++
			if len(s.lim) == 0 {
				return Unsat
			}
			if s.conflicts > conflictBudget {
				return Unknown
			}
			learned, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learned) == 1 {
				if !s.enqueue(learned[0], nil) {
					return Unsat
				}
			} else {
				c := &refClause{lits: learned, learned: true}
				s.clauses = append(s.clauses, c)
				s.learnedCount++
				s.watch(c)
				if !s.enqueue(learned[0], c) {
					return Unsat
				}
			}
			s.varInc /= 0.95
			if s.learnedCount > s.maxLearned {
				s.reduceDB()
			}
			if sinceRestart >= restartLimit {
				sinceRestart = 0
				restartLimit += restartLimit / 2
				s.cancelUntil(0)
			}
			continue
		}
		l, ok := s.decide()
		if !ok {
			return Sat
		}
		s.lim = append(s.lim, len(s.trail))
		s.enqueue(l, nil)
	}
}

// reduceDB deletes the longer half of the learned clauses (reasons of
// current assignments excepted), keeping propagation fast on long runs.
// Deleted clauses are dropped lazily from the watch lists.
func (s *refSolver) reduceDB() {
	locked := make(map[*refClause]bool, len(s.trail))
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != nil {
			locked[r] = true
		}
	}
	var learned []*refClause
	for _, c := range s.clauses {
		if c.learned && !c.deleted && !locked[c] {
			learned = append(learned, c)
		}
	}
	// Longer learned clauses are weaker; delete the worse half.
	refSortClausesByLenDesc(learned)
	for _, c := range learned[:len(learned)/2] {
		c.deleted = true
		s.learnedCount--
	}
	kept := s.clauses[:0]
	for _, c := range s.clauses {
		if !c.deleted {
			kept = append(kept, c)
		}
	}
	s.clauses = kept
	s.maxLearned += s.maxLearned / 10
}

func refSortClausesByLenDesc(cs []*refClause) {
	sort.Slice(cs, func(i, j int) bool { return len(cs[i].lits) > len(cs[j].lits) })
}

// Value returns the model value of variable v after Solve returned Sat.
func (s *refSolver) Value(v int) bool { return s.assign[v] == lTrue }

// Stats returns (propagations, conflicts) counters.
func (s *refSolver) Stats() (int64, int64) { return s.propagations, s.conflicts }
