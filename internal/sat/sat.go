// Package sat implements a small conflict-driven clause-learning (CDCL)
// satisfiability solver: two-literal watching, first-UIP clause learning,
// VSIDS-style activity branching, phase saving and geometric restarts.
// The test generator uses it, through a Tseitin encoding of the circuit,
// as the complete decision procedure for the hard justification queries
// (pair distinguishing, redundancy proofs) that structural PODEM abandons.
package sat

import (
	"slices"
	"sort"
)

// Lit is a literal: variable index v (0-based) shifted left once, with the
// low bit set for negation.
type Lit int32

// MkLit builds a literal from a variable index and sign.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Result is a solver outcome.
type Result uint8

// Solver outcomes.
const (
	// Sat: a satisfying assignment was found (read it with Value).
	Sat Result = iota
	// Unsat: the formula is contradictory.
	Unsat
	// Unknown: the conflict budget ran out first.
	Unknown
)

func (r Result) String() string {
	switch r {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

const (
	lTrue  int8 = 1
	lFalse int8 = -1
	lUndef int8 = 0
)

// clause is a clause header: its literals are lits[start:start+size] of
// the solver's literal slab. A clause is named by its index in the header
// slab (a cref); noReason names none.
type clause struct {
	start, size int32
	learned     bool
	deleted     bool
	locked      bool // reduceDB scratch: the reason of a current assignment
}

const noReason int32 = -1

// Solver is a CDCL SAT solver. Create with NewSolver, add clauses, then
// call Solve. Not safe for concurrent use.
type Solver struct {
	// Clause storage: every clause's header, original and learned, in the
	// order it was added, and all their literals in one slab. A deleted
	// clause keeps its header (watch lists drop it lazily) and gives up
	// its literals at the next reduceDB.
	clauses []clause
	lits    []Lit
	watches [][]int32 // literal -> crefs of the clauses watching it
	spare   []int32   // free room that full watch lists move into; see watchLit

	vals   []int8  // per literal: lTrue/lFalse/lUndef
	level  []int32 // per variable: decision level of the assignment
	reason []int32 // per variable: cref of the implying clause, or noReason
	trail  []Lit
	qhead  int    // trail[:qhead] is propagated; see propagate
	lim    []int  // trail indices at each decision level
	seen   []bool // per variable: analyze scratch, all false between calls

	activity  []float64
	varInc    float64
	order     []int32 // decision heap of variables; see decide
	hpos      []int32 // per variable: index in order, or -1 when absent
	phase     []int8  // saved phase per variable
	unsatable bool    // an empty clause was added

	propagations int64
	conflicts    int64

	learnedCount int
	maxLearned   int

	learnt []Lit   // analyze scratch: the clause being learned
	reduce []int32 // reduceDB scratch: the crefs it may delete
}

// NewSolver returns a solver over numVars variables (indices 0..numVars-1).
func NewSolver(numVars int) *Solver {
	s := &Solver{
		watches:    make([][]int32, 2*numVars),
		vals:       make([]int8, 2*numVars),
		level:      make([]int32, numVars),
		reason:     make([]int32, numVars),
		trail:      make([]Lit, 0, numVars),
		seen:       make([]bool, numVars),
		activity:   make([]float64, numVars),
		phase:      make([]int8, numVars),
		order:      make([]int32, numVars),
		hpos:       make([]int32, numVars),
		varInc:     1,
		maxLearned: 4000,
	}
	for i := range s.phase {
		s.reason[i] = noReason
		s.phase[i] = lFalse
		// All activities are 0, so ascending variable order is a heap.
		s.order[i] = int32(i)
		s.hpos[i] = int32(i)
	}
	return s
}

// Reserve makes room for clauses more clauses of lits literals in
// total, so adding them does not grow the clause storage, and for their
// watches.
func (s *Solver) Reserve(clauses, lits int) {
	s.clauses = slices.Grow(s.clauses, clauses)
	s.lits = slices.Grow(s.lits, lits)
	if n := 4 * clauses; len(s.spare) < n {
		s.spare = make([]int32, n)
	}
}

// NumVars returns the variable count.
func (s *Solver) NumVars() int { return len(s.level) }

// AddVar appends a fresh variable and returns its index.
func (s *Solver) AddVar() int {
	v := len(s.level)
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, noReason)
	s.seen = append(s.seen, false)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, lFalse)
	s.watches = append(s.watches, nil, nil)
	s.hpos = append(s.hpos, -1)
	s.heapInsert(v)
	return v
}

func (s *Solver) litValue(l Lit) int8 { return s.vals[l] }

// varValue returns the value of variable v (its positive literal).
func (s *Solver) varValue(v int) int8 { return s.vals[v<<1] }

// AddClause adds a clause (given at decision level 0). Duplicate literals
// are removed; tautologies are ignored. Returns false if the formula is
// already contradictory. The solver keeps no reference to lits.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatable {
		return false
	}
	// Normalize into the slab's tail: sort-free dedup, tautology check,
	// drop false lits / keep undecided and true ones (only root-level
	// assignments exist now).
	start := len(s.lits)
	for _, l := range lits {
		switch s.litValue(l) {
		case lTrue:
			s.lits = s.lits[:start]
			return true // satisfied forever (root level)
		case lFalse:
			continue
		}
		dup, taut := false, false
		for _, o := range s.lits[start:] {
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
			s.lits = s.lits[:start]
			return true
		}
		if !dup {
			s.lits = append(s.lits, l)
		}
	}
	switch n := len(s.lits) - start; n {
	case 0:
		s.unsatable = true
		return false
	case 1:
		unit := s.lits[start]
		s.lits = s.lits[:start]
		if !s.enqueue(unit, noReason) {
			s.unsatable = true
			return false
		}
		if s.propagate() != noReason {
			s.unsatable = true
			return false
		}
		return true
	default:
		s.clauses = append(s.clauses, clause{start: int32(start), size: int32(n)})
		s.watch(int32(len(s.clauses) - 1))
		return true
	}
}

// watch puts clause cr on the watch lists of its first two literals.
func (s *Solver) watch(cr int32) {
	start := s.clauses[cr].start
	s.watchLit(s.lits[start].Not(), cr)
	s.watchLit(s.lits[start+1].Not(), cr)
}

// watchLit appends cr to literal l's watch list. A full list moves into
// twice its capacity (at least 4) carved from the spare room, which is
// refilled with room for about as many watches as the clauses have
// literals, so the watch lists of a solve share a few chunks instead of
// each growing on its own. The space a list moves out of stays unused.
func (s *Solver) watchLit(l Lit, cr int32) {
	w := s.watches[l]
	if len(w) == cap(w) {
		n := max(4, 2*cap(w))
		if len(s.spare) < n {
			s.spare = make([]int32, max(n, 1024, len(s.lits)))
		}
		moved := s.spare[:len(w):n]
		copy(moved, w)
		s.spare = s.spare[n:]
		w = moved
	}
	s.watches[l] = append(w, cr)
}

// enqueue assigns a literal true with the given reason clause.
func (s *Solver) enqueue(l Lit, from int32) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l.Not()] = lFalse
	s.level[v] = int32(len(s.lim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation of the trail from qhead on; it
// returns the conflicting clause or noReason.
//
// Every literal below qhead has been propagated: each clause on its watch
// list has its other watch true, and that holds until a backtrack removes
// the literal. So a later call resumes at qhead instead of re-walking the
// whole trail. A conflict leaves qhead at the literal whose watch list
// found it. The backtrack that follows removes that literal's decision
// level, and cancelUntil pulls qhead back to the new trail end; without
// one (Solve returning Unknown or Unsat), a further Solve meets the same
// conflict again.
func (s *Solver) propagate() int32 {
	vals := s.vals
	for ; s.qhead < len(s.trail); s.qhead++ {
		p := s.trail[s.qhead]
		falseLit := p.Not()
		s.propagations++
		// Clauses watching ¬p must find a new watch or propagate. The
		// watchers that stay are compacted to the front of ws.
		ws := s.watches[p]
		kept := 0
		for wi := 0; wi < len(ws); wi++ {
			cr := ws[wi]
			c := &s.clauses[cr]
			if c.deleted {
				continue // lazily dropped from the watch list
			}
			lits := s.lits[c.start : c.start+c.size]
			// Ensure lits[1] is the false literal ¬p.
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], falseLit
			}
			if vals[lits[0]] == lTrue {
				ws[kept] = cr
				kept++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], falseLit
					s.watchLit(lits[1].Not(), cr)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			ws[kept] = cr
			kept++
			if !s.enqueue(lits[0], cr) {
				// Conflict: keep the remaining watchers and report.
				kept += copy(ws[kept:], ws[wi+1:])
				s.watches[p] = ws[:kept]
				return cr
			}
		}
		s.watches[p] = ws[:kept]
	}
	return noReason
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		// Scaling is monotone but rounding can turn an order into a tie,
		// which the variable-index tie rule may then order the other way.
		s.heapify()
		return
	}
	if s.hpos[v] >= 0 {
		s.siftUp(int(s.hpos[v]))
	}
}

// analyze derives a first-UIP learned clause from the conflict and returns
// it with the backtrack level. The clause is solver scratch, valid until
// the next call.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learned := append(s.learnt[:0], 0) // slot 0 reserved for the asserting literal
	seen := s.seen
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	curLevel := int32(len(s.lim))

	c := confl
	for {
		hdr := &s.clauses[c]
		lits := s.lits[hdr.start : hdr.start+hdr.size]
		if p >= 0 {
			lits = lits[1:] // lits[0] is the asserting literal of the reason
		}
		for _, q := range lits {
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
	// Every current-level mark was consumed above; clear the rest.
	for _, l := range learned[1:] {
		seen[l.Var()] = false
	}

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
	s.learnt = learned
	return learned, back
}

// cancelUntil undoes assignments above the given decision level.
func (s *Solver) cancelUntil(level int) {
	if len(s.lim) <= level {
		return
	}
	bound := s.lim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.varValue(v)
		s.vals[l] = lUndef
		s.vals[l.Not()] = lUndef
		s.reason[v] = noReason
		if s.hpos[v] < 0 {
			s.heapInsert(v)
		}
	}
	s.trail = s.trail[:bound]
	s.qhead = min(s.qhead, bound)
	s.lim = s.lim[:level]
}

// decide picks the unassigned variable with the highest activity, the
// lowest index among equals. The order heap holds every unassigned
// variable (cancelUntil re-inserts what it unassigns) and possibly some
// assigned ones, which are popped here on reaching the top; so the first
// unassigned top is the choice a scan of every variable would make.
func (s *Solver) decide() (Lit, bool) {
	for len(s.order) > 0 {
		v := int(s.order[0])
		if s.vals[v<<1] == lUndef {
			return MkLit(v, s.phase[v] != lTrue), true
		}
		s.heapPop()
	}
	return 0, false
}

// before is the order heap's strict total order: higher activity first,
// then lower variable index.
func (s *Solver) before(a, b int32) bool {
	if aa, ab := s.activity[a], s.activity[b]; aa != ab {
		return aa > ab
	}
	return a < b
}

func (s *Solver) heapInsert(v int) {
	s.hpos[v] = int32(len(s.order))
	s.order = append(s.order, int32(v))
	s.siftUp(len(s.order) - 1)
}

// heapPop removes the top of the order heap.
func (s *Solver) heapPop() {
	top := s.order[0]
	last := len(s.order) - 1
	s.order[0] = s.order[last]
	s.hpos[s.order[0]] = 0
	s.order = s.order[:last]
	s.hpos[top] = -1
	if last > 0 {
		s.siftDown(0)
	}
}

func (s *Solver) siftUp(i int) {
	v := s.order[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := s.order[parent]
		if !s.before(v, p) {
			break
		}
		s.order[i] = p
		s.hpos[p] = int32(i)
		i = parent
	}
	s.order[i] = v
	s.hpos[v] = int32(i)
}

func (s *Solver) siftDown(i int) {
	v := s.order[i]
	n := len(s.order)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.before(s.order[r], s.order[child]) {
			child = r
		}
		c := s.order[child]
		if !s.before(c, v) {
			break
		}
		s.order[i] = c
		s.hpos[c] = int32(i)
		i = child
	}
	s.order[i] = v
	s.hpos[v] = int32(i)
}

// heapify restores the heap order over the current members.
func (s *Solver) heapify() {
	for i := len(s.order)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// Solve runs the CDCL loop with the given conflict budget (0 = default of
// 2^20 conflicts). On Sat, Value reports the model. The budget counts the
// solver's conflicts so far, and a further Solve, say after Unknown,
// restarts from the root keeping the learned clauses and activities.
func (s *Solver) Solve(conflictBudget int64) Result {
	if s.unsatable {
		return Unsat
	}
	// An Unknown return leaves a conflict unanalyzed above the root; the
	// root check below must not mistake it for a contradiction.
	s.cancelUntil(0)
	if conflictBudget <= 0 {
		conflictBudget = 1 << 20
	}
	if confl := s.propagate(); confl != noReason {
		return Unsat
	}
	restartLimit := int64(100)
	sinceRestart := int64(0)
	for {
		confl := s.propagate()
		if confl != noReason {
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
				if !s.enqueue(learned[0], noReason) {
					return Unsat
				}
			} else {
				cr := int32(len(s.clauses))
				s.clauses = append(s.clauses, clause{start: int32(len(s.lits)), size: int32(len(learned)), learned: true})
				s.lits = append(s.lits, learned...)
				s.watch(cr)
				s.learnedCount++
				if !s.enqueue(learned[0], cr) {
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
		s.enqueue(l, noReason)
	}
}

// reduceDB deletes the longer half of the learned clauses (reasons of
// current assignments excepted), keeping propagation fast on long runs.
// Deleted clauses are dropped lazily from the watch lists; their
// literals leave the slab at once.
func (s *Solver) reduceDB() {
	s.markReasons(true)
	learned := s.reduce[:0]
	for cr := range s.clauses {
		if c := &s.clauses[cr]; c.learned && !c.deleted && !c.locked {
			learned = append(learned, int32(cr))
		}
	}
	s.markReasons(false)
	// Longer learned clauses are weaker; delete the worse half.
	s.sortClausesByLenDesc(learned)
	for _, cr := range learned[:len(learned)/2] {
		s.clauses[cr].deleted = true
		s.learnedCount--
	}
	s.reduce = learned[:0]
	// Slide the live clauses' literals down over the deleted ones. The
	// slab holds them in header order, so no live literal is overwritten
	// before it moves.
	w := int32(0)
	for cr := range s.clauses {
		c := &s.clauses[cr]
		if c.deleted {
			c.start, c.size = 0, 0
			continue
		}
		copy(s.lits[w:], s.lits[c.start:c.start+c.size])
		c.start = w
		w += c.size
	}
	s.lits = s.lits[:w]
	s.maxLearned += s.maxLearned / 10
}

// markReasons sets or clears the locked flag of every reason clause of
// the trail.
func (s *Solver) markReasons(locked bool) {
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != noReason {
			s.clauses[r].locked = locked
		}
	}
}

// sortClausesByLenDesc orders learned clauses longest first. sort.Slice is
// not stable, so the input order decides which equal-length clauses are
// deleted: changing either is a change to the search.
func (s *Solver) sortClausesByLenDesc(crs []int32) {
	sort.Slice(crs, func(i, j int) bool { return s.clauses[crs[i]].size > s.clauses[crs[j]].size })
}

// Value returns the model value of variable v after Solve returned Sat.
func (s *Solver) Value(v int) bool { return s.varValue(v) == lTrue }

// Stats returns (propagations, conflicts) counters. Propagations counts
// trail literals whose watch lists were walked, each once per assignment.
func (s *Solver) Stats() (int64, int64) { return s.propagations, s.conflicts }
