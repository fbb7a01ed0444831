package atpg

import (
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sat"
)

// coneEncoder Tseitin-encodes the fanin cone of one gate of a flatNet
// with structural hashing into a CNF, and decides it with a solver sized
// for that CNF. All its buffers are kept across calls.
//
// Gates are visited in the order Kahn's algorithm gives the whole net
// (netlist's topological order: sources in gate order, then FIFO, each
// gate's readers in gate order), restricted to the cone, and each gate
// is keyed by its type and ordered fanin variables. A gate whose key is
// already encoded reuses that variable and adds no clauses; inputs are
// never merged. Both copies of a miter read the same inputs, so every
// gate outside the faults' fanout cones merges with its twin, and the
// solver reasons only about the cones instead of re-deriving, conflict by
// conflict, that the copies agree elsewhere.
type coneEncoder struct {
	// per gate of the net
	varOf []int32 // the gate's variable, -1 outside the cone
	pos   []int32 // the gate's index in cone, -1 outside it

	cone    []int32 // the cone's gates, ascending
	order   []int32 // the cone in Kahn order
	indeg   []int32 // per cone index
	readOff []int32 // per cone index: readers are reader[readOff[i]:readOff[i+1]]
	reader  []int32
	cursor  []int32 // per cone index: next free reader slot while filling
	table   []int32 // structural-hash slots: a representative gate, or -1
	all     []sat.Lit

	// The CNF: variables 0..vars-1, clause k is lits[ends[k-1]:ends[k]].
	vars int
	ends []int32
	lits []sat.Lit
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// encode builds the CNF of the fanin cone of target in n, leaving each
// gate's variable in varOf.
func (e *coneEncoder) encode(n *flatNet, target int32) {
	ng := len(n.typ)
	e.varOf = grow(e.varOf, ng)
	e.pos = grow(e.pos, ng)
	for g := range ng {
		e.varOf[g], e.pos[g] = -1, -1
	}

	// The cone, by a walk over fanins (pos 0 marks a gate reached), then
	// in ascending gate order.
	walk := append(e.cone[:0], target)
	e.pos[target] = 0
	for i := 0; i < len(walk); i++ {
		for _, d := range n.faninOf(walk[i]) {
			if e.pos[d] < 0 {
				e.pos[d] = 0
				walk = append(walk, d)
			}
		}
	}
	cone := walk[:0]
	for g := range ng {
		if e.pos[g] >= 0 {
			e.pos[g] = int32(len(cone))
			cone = append(cone, int32(g))
		}
	}
	e.cone = cone

	// Readers within the cone, in CSR form; a gate reading a line on two
	// pins is listed twice, as in netlist's fanout lists.
	k := len(cone)
	e.indeg = grow(e.indeg, k)
	e.readOff = grow(e.readOff, k+1)
	clear(e.readOff)
	for i, g := range cone {
		fin := n.faninOf(g)
		e.indeg[i] = int32(len(fin))
		for _, d := range fin {
			e.readOff[e.pos[d]+1]++
		}
	}
	for i := range k {
		e.readOff[i+1] += e.readOff[i]
	}
	e.reader = grow(e.reader, int(e.readOff[k]))
	e.cursor = append(e.cursor[:0], e.readOff[:k]...)
	for _, g := range cone {
		for _, d := range n.faninOf(g) {
			p := e.pos[d]
			e.reader[e.cursor[p]] = g
			e.cursor[p]++
		}
	}

	// Kahn's algorithm over the cone; order doubles as the FIFO queue.
	order := e.order[:0]
	for i, g := range cone {
		if e.indeg[i] == 0 {
			order = append(order, g)
		}
	}
	for head := 0; head < len(order); head++ {
		p := e.pos[order[head]]
		for _, r := range e.reader[e.readOff[p]:e.readOff[p+1]] {
			if e.indeg[e.pos[r]]--; e.indeg[e.pos[r]] == 0 {
				order = append(order, r)
			}
		}
	}
	e.order = order

	// Structural hashing over an open-addressed table of at least twice
	// the cone's size.
	size := 1
	for size < 2*k {
		size <<= 1
	}
	e.table = grow(e.table, size)
	for i := range e.table {
		e.table[i] = -1
	}
	mask := uint32(size - 1)

	e.vars = 0
	e.ends = e.ends[:0]
	e.lits = e.lits[:0]
	for _, g := range order {
		t := n.typ[g]
		if t == netlist.Input {
			e.varOf[g] = e.newVar()
			continue
		}
		fin := n.faninOf(g)
		h := uint32(t) * 0x9e3779b1
		for _, d := range fin {
			h = (h ^ uint32(e.varOf[d])) * 0x01000193
		}
		slot := (h ^ h>>15) & mask
		for ; e.table[slot] >= 0; slot = (slot + 1) & mask {
			if r := e.table[slot]; e.sameKey(n, r, g) {
				e.varOf[g] = e.varOf[r]
				break
			}
		}
		if e.varOf[g] >= 0 {
			continue
		}
		e.table[slot] = g
		v := e.newVar()
		e.varOf[g] = v
		e.encodeGate(t, v, fin)
	}
}

// sameKey reports whether gates r and g have the same type and the same
// fanin variables in the same order.
func (e *coneEncoder) sameKey(n *flatNet, r, g int32) bool {
	if n.typ[r] != n.typ[g] {
		return false
	}
	fr, fg := n.faninOf(r), n.faninOf(g)
	if len(fr) != len(fg) {
		return false
	}
	for i := range fr {
		if e.varOf[fr[i]] != e.varOf[fg[i]] {
			return false
		}
	}
	return true
}

// newVar allocates the CNF's next variable.
func (e *coneEncoder) newVar() int32 {
	e.vars++
	return int32(e.vars - 1)
}

// clause appends a clause to the CNF.
func (e *coneEncoder) clause(lits ...sat.Lit) {
	e.lits = append(e.lits, lits...)
	e.ends = append(e.ends, int32(len(e.lits)))
}

// lit returns the literal of variable v.
func lit(v int32, neg bool) sat.Lit { return sat.MkLit(int(v), neg) }

// encodeGate adds the clauses of variable out <-> t(fanin variables).
func (e *coneEncoder) encodeGate(t netlist.GateType, out int32, fin []int32) {
	o, no := lit(out, false), lit(out, true)
	switch t {
	case netlist.Const0:
		e.clause(no)
	case netlist.Const1:
		e.clause(o)
	case netlist.Buf, netlist.Not:
		inv := t == netlist.Not
		// out <-> (inv ? ¬d : d)
		d := e.varOf[fin[0]]
		e.clause(no, lit(d, inv))
		e.clause(o, lit(d, !inv))
	case netlist.And, netlist.Nand:
		if t == netlist.Nand {
			o, no = no, o
		}
		// o -> every input; (¬in_i for some i) -> ¬o
		all := append(e.all[:0], o)
		for _, d := range fin {
			e.clause(no, lit(e.varOf[d], false))
			all = append(all, lit(e.varOf[d], true))
		}
		e.clause(all...)
		e.all = all
	case netlist.Or, netlist.Nor:
		if t == netlist.Nor {
			o, no = no, o
		}
		all := append(e.all[:0], no)
		for _, d := range fin {
			e.clause(o, lit(e.varOf[d], true))
			all = append(all, lit(e.varOf[d], false))
		}
		e.clause(all...)
		e.all = all
	case netlist.Xor, netlist.Xnor:
		// Chain pairwise XOR through auxiliary variables; for XNOR the
		// final link is an XNOR, since ¬(x1⊕…⊕xn) = XNOR(x1⊕…⊕xn-1, xn).
		cur := e.varOf[fin[0]]
		for k := 1; k < len(fin); k++ {
			last := k == len(fin)-1
			next := out
			if !last {
				next = e.newVar()
			}
			O, A, B := lit(next, false), lit(cur, false), lit(e.varOf[fin[k]], false)
			NO, NA, NB := O.Not(), A.Not(), B.Not()
			if last && t == netlist.Xnor {
				// next <-> (cur == in_k)
				e.clause(NO, A, NB)
				e.clause(NO, NA, B)
				e.clause(O, A, B)
				e.clause(O, NA, NB)
			} else {
				// next <-> cur XOR in_k
				e.clause(NO, A, B)
				e.clause(NO, NA, NB)
				e.clause(O, NA, B)
				e.clause(O, A, NB)
			}
			cur = next
		}
	}
}

// solve finds, via SAT, an input vector driving gate target of n to 1, or
// proves none exists, and returns the solver's conflict count. The
// vector is over n's scan inputs; inputs outside the cone stay X. The
// conflict budget bounds the effort; 0 uses the solver default.
func (e *coneEncoder) solve(n *flatNet, target int32, budget int64) (pattern.Vector, Status, int64) {
	e.encode(n, target)
	s := sat.NewSolver(e.vars)
	s.Reserve(len(e.ends)+1, len(e.lits)+1)
	start := int32(0)
	for _, end := range e.ends {
		s.AddClause(e.lits[start:end]...)
		start = end
	}
	s.AddClause(lit(e.varOf[target], false))
	result := s.Solve(budget)
	_, conflicts := s.Stats()
	switch result {
	case sat.Unsat:
		return nil, Untestable, conflicts
	case sat.Unknown:
		return nil, Aborted, conflicts
	}
	vec := make(pattern.Vector, len(n.inputs))
	for slot, g := range n.inputs {
		if e.varOf[g] < 0 {
			vec[slot] = logic.X
			continue
		}
		vec[slot] = logic.FromBit(boolToBit(s.Value(int(e.varOf[g]))))
	}
	return vec, Success, conflicts
}

func boolToBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
