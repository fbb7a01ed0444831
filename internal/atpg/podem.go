// Package atpg generates test sets: a PODEM engine for single stuck-at
// faults, random-pattern generation with fault-simulation screening,
// n-detection test sets (each fault detected by at least n different
// tests), and diagnostic test sets that distinguish fault pairs through
// structural miters. All generation runs on the combinational full-scan
// form of a circuit (netlist.Combinationalize).
package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
)

// Status is the outcome of one PODEM run.
type Status uint8

// PODEM outcomes.
const (
	// Success: a test cube detecting the fault was found.
	Success Status = iota
	// Untestable: the decision space was exhausted; the fault is redundant.
	Untestable
	// Aborted: the backtrack limit was hit before a decision.
	Aborted
)

func (s Status) String() string {
	switch s {
	case Success:
		return "success"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Engine is a PODEM test generator over one combinational circuit. It is
// reusable across faults but not safe for concurrent use.
type Engine struct {
	// BacktrackLimit bounds the number of backtracks per fault before the
	// run is abandoned as Aborted.
	BacktrackLimit int

	c    *netlist.Circuit
	view *netlist.ScanView
	val  []logic.V5

	// The circuit in flat arrays, so evaluation never touches the
	// netlist.Gate records: per-gate type and level, and the fanin and
	// fanout lists in CSR form (gate g's fanins are
	// fanin[faninOff[g]:faninOff[g+1]], likewise fanout).
	typ       []netlist.GateType
	level     []int32
	faninOff  []int32
	fanin     []int32
	fanoutOff []int32
	fanout    []int32

	// piVal holds the current PI decisions (ternary); val is derived from
	// it by implication.
	piVal []logic.Value
	slot  []int32 // gate -> scan input slot, or -1
	rng   *rand.Rand

	// Event-driven implication (see settle). freeVal is the fault-free
	// value of every gate with all inputs X, the state every Generate
	// starts from; bucket[l] holds the scheduled gates of level l, and
	// bucket[lo..hi] is the range that may be non-empty.
	freeVal []logic.V5
	bucket  [][]int32
	queued  []bool
	lo, hi  int32

	target fault.Fault
	// cone is the target's fanout cone (its site gate included) in
	// ascending gate order, set by start. Only gates in it can carry a
	// fault effect, so dFrontier walks it instead of the whole circuit.
	cone []int32
	// The implication region, set by start: the gates g with
	// region[g] == regionID, the transitive fanin of the cone. The search
	// reads no value outside it, so settle implies only its gates (see
	// start).
	region   []uint32
	regionID uint32
	isPO     []bool
	scoap    *netlist.SCOAP
	ctx      context.Context // optional; cancels Generate with Aborted

	// backtracks counts the flips of the last Generate.
	backtracks int

	// scratch, reused across calls
	visited  []uint32
	visitID  uint32
	stack    []decision
	frontier []int32
	xins     []int32
	xstack   []int32
	// trail logs every value settle changes since start, oldest first, so
	// a backtrack can undo its decisions' implications (see restore).
	trail []undo
}

// decision is one PI assignment on the PODEM search stack. mark is the
// trail length from before the input was set: restoring the trail to it
// undoes this decision and every later one.
type decision struct {
	gate    int32
	mark    int32
	flipped bool
}

// undo is one trail entry: gate g held value old before settle changed it.
type undo struct {
	g   int32
	old logic.V5
}

// NewEngine returns an engine for the combinational circuit c. The circuit
// must contain no flip-flops (use netlist.Combinationalize first).
func NewEngine(c *netlist.Circuit) *Engine {
	if len(c.DFFs) != 0 {
		panic("atpg: engine requires a combinational circuit; call netlist.Combinationalize")
	}
	e := &Engine{
		BacktrackLimit: 100,
		c:              c,
		view:           netlist.NewScanView(c),
		val:            make([]logic.V5, len(c.Gates)),
		piVal:          make([]logic.Value, len(c.Gates)),
		slot:           make([]int32, len(c.Gates)),
		bucket:         make([][]int32, c.MaxLevel()+1),
		queued:         make([]bool, len(c.Gates)),
		region:         make([]uint32, len(c.Gates)),
		visited:        make([]uint32, len(c.Gates)),
	}
	e.lo, e.hi = int32(len(e.bucket)), -1
	e.flatten()
	for i := range e.slot {
		e.slot[i] = -1
	}
	for s, g := range e.view.Inputs {
		e.slot[g] = int32(s)
	}
	e.isPO = make([]bool, len(c.Gates))
	for _, o := range c.POs {
		e.isPO[o] = true
	}
	e.scoap = netlist.ComputeSCOAP(c)
	// No gate carries the fault Gate -1: imply computes the fault-free
	// all-X state.
	e.target = fault.Fault{Gate: -1, Pin: fault.StemPin}
	e.imply()
	e.freeVal = append([]logic.V5(nil), e.val...)
	return e
}

// flatten copies the circuit's gate types, levels, fanin and fanout lists
// into the engine's flat arrays.
func (e *Engine) flatten() {
	c := e.c
	n := len(c.Gates)
	e.typ = make([]netlist.GateType, n)
	e.level = make([]int32, n)
	e.faninOff = make([]int32, n+1)
	e.fanoutOff = make([]int32, n+1)
	for g := range c.Gates {
		e.typ[g] = c.Gates[g].Type
		e.level[g] = c.Level(int32(g))
		e.faninOff[g+1] = e.faninOff[g] + int32(len(c.Gates[g].Fanin))
		e.fanoutOff[g+1] = e.fanoutOff[g] + int32(len(c.Fanout(int32(g))))
	}
	e.fanin = make([]int32, 0, e.faninOff[n])
	e.fanout = make([]int32, 0, e.fanoutOff[n])
	for g := range c.Gates {
		e.fanin = append(e.fanin, c.Gates[g].Fanin...)
		e.fanout = append(e.fanout, c.Fanout(int32(g))...)
	}
}

// faninOf returns gate g's fanin list from the flat arrays.
func (e *Engine) faninOf(g int32) []int32 { return e.fanin[e.faninOff[g]:e.faninOff[g+1]] }

// fanoutOf returns gate g's fanout list from the flat arrays.
func (e *Engine) fanoutOf(g int32) []int32 { return e.fanout[e.fanoutOff[g]:e.fanoutOff[g+1]] }

// Randomize installs a random source used to diversify backtrace and
// D-frontier choices, so repeated runs on the same fault yield different
// cubes. A nil source restores deterministic behaviour.
func (e *Engine) Randomize(r *rand.Rand) { e.rng = r }

// SetContext installs a context checked once per decision of the PODEM
// search loop; when it is cancelled or past its deadline, Generate gives up
// on the current fault with Aborted. A nil context (the default) makes
// runs uninterruptible.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// Generate attempts to build a test cube for fault f. On Success the
// returned vector has a ternary value per scan input; unassigned inputs are
// X and may be filled freely without losing detection.
func (e *Engine) Generate(f fault.Fault) (pattern.Vector, Status) {
	e.start(f)

	e.stack = e.stack[:0]
	e.backtracks = 0

	for {
		if e.ctx != nil && e.ctx.Err() != nil {
			return nil, Aborted
		}
		if e.detected() {
			cube := make(pattern.Vector, e.view.NumInputs())
			for s, g := range e.view.Inputs {
				cube[s] = e.piVal[g]
			}
			return cube, Success
		}
		objGate, objVal, feasible := e.objective()
		if feasible {
			pi, v := e.backtrace(objGate, objVal)
			// Backtrace can dead-end on an already-assigned input or a
			// constant; treat that like an infeasible state.
			if e.typ[pi] == netlist.Input && !e.piVal[pi].Known() {
				e.stack = append(e.stack, decision{gate: pi, mark: int32(len(e.trail))})
				e.setPI(pi, v)
				e.settle()
				continue
			}
		}
		// Dead end: flip the most recent unflipped decision; fully tried
		// decisions unwind. An unwound decision only clears its input: the
		// restore before the next flip undoes its implications with those
		// of every decision above the flipped one.
		for {
			if len(e.stack) == 0 {
				return nil, Untestable
			}
			top := &e.stack[len(e.stack)-1]
			if !top.flipped {
				e.backtracks++
				if e.backtracks > e.BacktrackLimit {
					return nil, Aborted
				}
				top.flipped = true
				e.restore(top.mark)
				e.setPI(top.gate, e.piVal[top.gate].Not())
				e.settle()
				break
			}
			e.piVal[top.gate] = logic.X
			e.stack = e.stack[:len(e.stack)-1]
		}
	}
}

// start targets fault f with every input X. It records the site's fanout
// cone for dFrontier and marks the implication region: the cone and its
// transitive fanin. Every value the search reads lies in the region:
// detected looks for a D, which only the cone can carry; objective,
// dFrontier and xPathExists read cone gates, the fault site's driver and
// the fanins of cone gates; backtrace walks fanins from those, so the
// inputs it decides are region gates too. The region is closed under
// fanin, so settle computes each region gate from region gates alone,
// and schedule passes over every other gate: those keep the fault-free
// all-X value start copies in, and the search never reads them.
//
// Of the fresh state, only the fault site is then re-evaluated: every
// other difference from it lies in the site's fanout cone, which settle
// reaches. No event is pending, as Generate settles every input it sets
// before it returns. start finally empties the trail, so the search
// undoes nothing below its first decision.
func (e *Engine) start(f fault.Fault) {
	e.target = f
	for i := range e.piVal {
		e.piVal[i] = logic.X
	}

	e.visitID++
	e.cone = append(e.cone[:0], f.Gate)
	e.visited[f.Gate] = e.visitID
	for i := 0; i < len(e.cone); i++ {
		for _, s := range e.fanoutOf(e.cone[i]) {
			if e.visited[s] != e.visitID {
				e.visited[s] = e.visitID
				e.cone = append(e.cone, s)
			}
		}
	}
	slices.Sort(e.cone)

	e.regionID++
	walk := append(e.xstack[:0], e.cone...)
	for _, g := range walk {
		e.region[g] = e.regionID
	}
	for len(walk) > 0 {
		g := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		for _, d := range e.faninOf(g) {
			if e.region[d] != e.regionID {
				e.region[d] = e.regionID
				walk = append(walk, d)
			}
		}
	}
	e.xstack = walk

	copy(e.val, e.freeVal)
	e.schedule(f.Gate)
	e.settle()
	e.trail = e.trail[:0]
}

// inRegion reports whether gate g lies in the current implication region.
func (e *Engine) inRegion(g int32) bool { return e.region[g] == e.regionID }

// setPI assigns a primary input and schedules it for settle.
func (e *Engine) setPI(g int32, v logic.Value) {
	e.piVal[g] = v
	e.schedule(g)
}

// schedule queues gate g for re-evaluation by settle, if it lies in the
// implication region.
func (e *Engine) schedule(g int32) {
	if e.queued[g] || e.region[g] != e.regionID {
		return
	}
	e.queued[g] = true
	l := e.level[g]
	e.bucket[l] = append(e.bucket[l], g)
	e.lo, e.hi = min(e.lo, l), max(e.hi, l)
}

// settle re-evaluates the scheduled gates level by level, scheduling the
// region fanout of every gate whose value changes and logging its old
// value on the trail. A gate's fanins all sit at lower levels, so each
// gate is evaluated at most once, after its inputs are final. Five-valued
// values are a pure function of the input assignment, so every region
// gate ends with the value a full imply gives it.
func (e *Engine) settle() {
	for l := e.lo; l <= e.hi; l++ {
		for _, g := range e.bucket[l] {
			e.queued[g] = false
			if v := e.evalGate(g); v != e.val[g] {
				e.trail = append(e.trail, undo{g, e.val[g]})
				e.val[g] = v
				for _, s := range e.fanoutOf(g) {
					e.schedule(s)
				}
			}
		}
		e.bucket[l] = e.bucket[l][:0]
	}
	e.lo, e.hi = int32(len(e.bucket)), -1
}

// restore undoes the trail down to mark, newest entry first, so a gate
// changed by several settles gets back its oldest logged value. When the
// mark was taken, every value was the settled one of the input assignment
// then in force, and values are a pure function of that assignment, so
// the restored state is exactly what settling that assignment gives.
func (e *Engine) restore(mark int32) {
	for i := len(e.trail) - 1; i >= int(mark); i-- {
		u := e.trail[i]
		e.val[u.g] = u.old
	}
	e.trail = e.trail[:mark]
}

// imply recomputes the five-valued value of every gate from the current PI
// assignment, injecting the target fault. It builds the fault-free all-X
// state, and is the reference settle must agree with.
func (e *Engine) imply() {
	for _, g := range e.c.Order() {
		e.val[g] = e.evalGate(g)
	}
}

// evalGate computes gate g's five-valued value from its fanin values (or,
// for an input, its assignment). The target fault is injected at its own
// gate only: a branch fault replaces its pin's faulty half, a stem fault
// the output's.
func (e *Engine) evalGate(g int32) logic.V5 {
	var v logic.V5
	switch t := e.typ[g]; t {
	case netlist.Input:
		v = logic.FromPair(e.piVal[g], e.piVal[g])
	case netlist.Const0:
		v = logic.Z5
	case netlist.Const1:
		v = logic.O5
	default:
		fin := e.faninOf(g)
		pin, pv := int32(-1), logic.X5
		if g == e.target.Gate && !e.target.IsStem() {
			pin = e.target.Pin
			pv = logic.FromPair(e.val[fin[pin]].Good(), logic.FromBit(uint64(e.target.Stuck)))
		}
		fd := &folds[t]
		v = fd.init
		for k, d := range fin {
			x := e.val[d]
			if int32(k) == pin {
				x = pv
			}
			v = fd.op[v][x]
		}
		if fd.inv {
			v = v.Not5()
		}
	}
	if g == e.target.Gate && e.target.IsStem() {
		v = logic.FromPair(v.Good(), logic.FromBit(uint64(e.target.Stuck)))
	}
	return v
}

// fold5 is a gate type's five-valued evaluation: the inputs fold left to
// right through op from init, and inv complements the result. The
// five-valued operators are not associative (a D-D' product is known
// where the same inputs regrouped with an X are not), so the order is
// part of the definition. Buf and Not are one-input AND and NAND.
type fold5 struct {
	op   *[5][5]logic.V5
	init logic.V5
	inv  bool
}

// Five-valued AND, OR and XOR as lookup tables, built from the logic
// package's definitions so the two cannot disagree, and the fold of every
// logic gate type over them.
var (
	and5, or5, xor5 = table5(logic.And5), table5(logic.Or5), table5(logic.Xor5)
	folds           = [...]fold5{
		netlist.Buf:  {&and5, logic.O5, false},
		netlist.Not:  {&and5, logic.O5, true},
		netlist.And:  {&and5, logic.O5, false},
		netlist.Nand: {&and5, logic.O5, true},
		netlist.Or:   {&or5, logic.Z5, false},
		netlist.Nor:  {&or5, logic.Z5, true},
		netlist.Xor:  {&xor5, logic.Z5, false},
		netlist.Xnor: {&xor5, logic.Z5, true},
	}
)

func table5(op func(a, b logic.V5) logic.V5) (t [5][5]logic.V5) {
	for a := range t {
		for b := range t[a] {
			t[a][b] = op(logic.V5(a), logic.V5(b))
		}
	}
	return t
}

// detected reports whether a fault effect has reached an output.
func (e *Engine) detected() bool {
	for _, g := range e.view.Outputs {
		if e.val[g].IsD() {
			return true
		}
	}
	return false
}

// faultSiteGoodValue returns the good-machine value of the faulty line (for
// branch faults, the driver's value).
func (e *Engine) faultSiteGoodValue() logic.Value {
	if e.target.IsStem() {
		return e.val[e.target.Gate].Good()
	}
	d := e.faninOf(e.target.Gate)[e.target.Pin]
	return e.val[d].Good()
}

// objective returns the next (gate, value) objective, or feasible=false if
// the current assignment can no longer lead to a test.
func (e *Engine) objective() (g int32, v logic.Value, feasible bool) {
	want := logic.FromBit(uint64(1 - e.target.Stuck))
	siteGood := e.faultSiteGoodValue()
	if siteGood == want.Not() {
		return 0, logic.X, false // fault can never be excited now
	}
	if siteGood == logic.X {
		// Excite the fault: justify ¬stuck at the fault site.
		if e.target.IsStem() {
			return e.target.Gate, want, true
		}
		return e.faninOf(e.target.Gate)[e.target.Pin], want, true
	}
	// Fault excited; drive the D-frontier.
	frontier := e.dFrontier()
	if len(frontier) == 0 {
		return 0, logic.X, false
	}
	if !e.xPathExists(frontier) {
		return 0, logic.X, false
	}
	pick := frontier[0]
	if e.rng != nil {
		pick = frontier[e.rng.Intn(len(frontier))]
	}
	// Objective: set an X input of the frontier gate to the gate's
	// non-controlling value (any value for XOR-family gates).
	xins := e.xins[:0]
	for _, d := range e.faninOf(pick) {
		if e.val[d] == logic.X5 {
			xins = append(xins, d)
		}
	}
	e.xins = xins
	if len(xins) == 0 {
		// Cannot happen for a frontier gate, but fail safe.
		return 0, logic.X, false
	}
	choose := xins[0]
	if e.rng != nil {
		choose = xins[e.rng.Intn(len(xins))]
	}
	switch e.typ[pick] {
	case netlist.And, netlist.Nand:
		return choose, logic.One, true
	case netlist.Or, netlist.Nor:
		return choose, logic.Zero, true
	default: // XOR/XNOR: either value lets the effect through
		return choose, logic.Zero, true
	}
}

// dFrontier returns the gates whose output is X while at least one fanin
// carries a fault effect, in ascending gate order. For a branch fault the
// effect first exists on the faulty pin itself (not on any gate output),
// so the faulty gate joins the frontier when its pin carries a D and its
// output is still X. Every such gate lies in the target's fanout cone, so
// walking the cone in ascending order yields exactly a full scan's list.
// The slice is engine scratch, valid until the next call.
func (e *Engine) dFrontier() []int32 {
	frontier := e.frontier[:0]
	for _, g := range e.cone {
		if e.val[g] != logic.X5 {
			continue
		}
		switch e.typ[g] {
		case netlist.Input, netlist.Const0, netlist.Const1:
			continue
		}
		fin := e.faninOf(g)
		if !e.target.IsStem() && e.target.Gate == g {
			d := fin[e.target.Pin]
			pv := logic.FromPair(e.val[d].Good(), logic.FromBit(uint64(e.target.Stuck)))
			if pv.IsD() {
				frontier = append(frontier, g)
				continue
			}
		}
		for _, d := range fin {
			if e.val[d].IsD() {
				frontier = append(frontier, g)
				break
			}
		}
	}
	e.frontier = frontier
	return frontier
}

// xPathExists reports whether some frontier gate reaches an output through
// X-valued gates (the classic X-path check).
func (e *Engine) xPathExists(frontier []int32) bool {
	e.visitID++
	e.xstack = e.xstack[:0]
	for _, g := range frontier {
		if e.visited[g] != e.visitID {
			e.visited[g] = e.visitID
			e.xstack = append(e.xstack, g)
		}
	}
	for len(e.xstack) > 0 {
		g := e.xstack[len(e.xstack)-1]
		e.xstack = e.xstack[:len(e.xstack)-1]
		if e.isPO[g] {
			return true
		}
		for _, s := range e.fanoutOf(g) {
			if e.visited[s] == e.visitID || e.val[s] != logic.X5 {
				continue
			}
			e.visited[s] = e.visitID
			e.xstack = append(e.xstack, s)
		}
	}
	return false
}

// backtrace walks an objective (gate must take value v) back to an
// unassigned primary input, returning the PI and the value to try.
func (e *Engine) backtrace(g int32, v logic.Value) (int32, logic.Value) {
	for {
		t := e.typ[g]
		if t == netlist.Input {
			return g, v
		}
		fin := e.faninOf(g)
		switch t {
		case netlist.Buf:
			g = fin[0]
		case netlist.Not:
			g, v = fin[0], v.Not()
		case netlist.And, netlist.Nand:
			eff := v
			if t == netlist.Nand {
				eff = v.Not()
			}
			if eff == logic.One {
				// All inputs must be 1: attack the hardest-to-set-1 first.
				g, v = e.pickX(fin, logic.One, true), logic.One
			} else {
				// One 0 suffices: take the easiest-to-set-0 input.
				g, v = e.pickX(fin, logic.Zero, false), logic.Zero
			}
		case netlist.Or, netlist.Nor:
			eff := v
			if t == netlist.Nor {
				eff = v.Not()
			}
			if eff == logic.Zero {
				g, v = e.pickX(fin, logic.Zero, true), logic.Zero
			} else {
				g, v = e.pickX(fin, logic.One, false), logic.One
			}
		case netlist.Xor, netlist.Xnor:
			// Choose any X input; required value is the parity of v with
			// the known inputs (unknown co-inputs assumed 0 — they will be
			// justified by later objectives if needed).
			parity := v
			if t == netlist.Xnor {
				parity = parity.Not()
			}
			var chosen int32 = -1
			for _, d := range fin {
				dv := e.val[d].Good()
				switch {
				case dv == logic.One:
					parity = parity.Not()
				case dv == logic.X && chosen < 0:
					chosen = d
				}
			}
			if chosen < 0 {
				// No X input left; fall back to the first fanin.
				chosen = fin[0]
			}
			g, v = chosen, parity
		default:
			// Constants cannot be justified; stop at an arbitrary PI to
			// force a backtrack upstream.
			return g, v
		}
	}
}

// pickX chooses an X-valued line of a gate's fanin list using SCOAP
// controllability: when hard is true (every input must take value want)
// the hardest input is attacked first, otherwise the easiest one is
// chosen. Falls back to the first fanin if none is X.
func (e *Engine) pickX(fin []int32, want logic.Value, hard bool) int32 {
	if e.rng != nil && len(fin) > 1 {
		// Randomized tie-break: pick uniformly among X inputs.
		xs := e.xins[:0]
		for _, d := range fin {
			if e.val[d].Good() == logic.X {
				xs = append(xs, d)
			}
		}
		e.xins = xs
		if len(xs) > 0 {
			return xs[e.rng.Intn(len(xs))]
		}
		return fin[0]
	}
	cc := func(d int32) int32 {
		if want == logic.One {
			return e.scoap.CC1[d]
		}
		return e.scoap.CC0[d]
	}
	var best int32 = -1
	var bestCost int32
	for _, d := range fin {
		if e.val[d].Good() != logic.X {
			continue
		}
		cost := cc(d)
		if best < 0 || (hard && cost > bestCost) || (!hard && cost < bestCost) {
			best, bestCost = d, cost
		}
	}
	if best < 0 {
		return fin[0]
	}
	return best
}
