package atpg

import (
	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// flatNet is a combinational circuit in flat arrays, the form the SAT
// encoder reads: gate g has type typ[g] and fanins
// fanin[faninOff[g]:faninOff[g+1]], and inputs[s] is the gate of scan
// input slot s. It carries no names, fanout lists or levels.
type flatNet struct {
	typ      []netlist.GateType
	faninOff []int32
	fanin    []int32
	inputs   []int32
}

// faninOf returns gate g's fanin list.
func (n *flatNet) faninOf(g int32) []int32 { return n.fanin[n.faninOff[g]:n.faninOff[g+1]] }

// reset empties the net, keeping its storage.
func (n *flatNet) reset() {
	n.typ = n.typ[:0]
	n.faninOff = append(n.faninOff[:0], 0)
	n.fanin = n.fanin[:0]
	n.inputs = n.inputs[:0]
}

// add appends a gate and returns its id.
func (n *flatNet) add(t netlist.GateType, fanin ...int32) int32 {
	g := int32(len(n.typ))
	n.typ = append(n.typ, t)
	n.fanin = append(n.fanin, fanin...)
	n.faninOff = append(n.faninOff, int32(len(n.fanin)))
	return g
}

// miterSolver decides by SAT the detection and pair miters of one
// combinational circuit. A miter is two copies of the circuit sharing the
// inputs, with one fault injected in each copy (or none), every output
// pair XORed and the XORs ORed into a single output. An input vector
// driving that output to 1 gives different responses under the two
// copies, so the output is 1-satisfiable exactly when the pair is
// distinguishable (or the fault detectable). The miter is built as a
// flatNet and encoded by a coneEncoder, and both keep their storage
// across calls. Not safe for concurrent use.
type miterSolver struct {
	c    *netlist.Circuit
	slot []int32 // input gate of c -> scan input slot
	m    flatNet
	enc  coneEncoder

	// build scratch
	lineOf         []int32 // per gate of c: the miter line its readers see
	outsA, outsB   []int32
	xors, xorsNext []int32
}

// newMiterSolver returns a miterSolver for the combinational circuit c.
// The circuit must contain no flip-flops (use netlist.Combinationalize
// first).
func newMiterSolver(c *netlist.Circuit) *miterSolver {
	if len(c.DFFs) != 0 {
		panic("atpg: miter requires a combinational circuit; call netlist.Combinationalize")
	}
	ms := &miterSolver{
		c:      c,
		slot:   make([]int32, len(c.Gates)),
		lineOf: make([]int32, len(c.Gates)),
	}
	for s, g := range c.PIs {
		ms.slot[g] = int32(s)
	}
	return ms
}

// build constructs the miter of fa in copy A and fb in copy B (a nil
// fault leaves its copy fault-free) and returns its output gate. Gates
// 0..len(c.PIs)-1 are the shared inputs in c's input order, so cubes
// found on the miter apply directly to c. Each copy follows: its
// stuck-at constant when it has a fault, then one gate per non-input
// gate of c in c's gate order; then one XOR per output and the OR tree,
// pairing neighbours level by level.
func (ms *miterSolver) build(fa, fb *fault.Fault) int32 {
	n := &ms.m
	n.reset()
	for range ms.c.PIs {
		n.inputs = append(n.inputs, n.add(netlist.Input))
	}
	ms.outsA = ms.copyInto(fa, ms.outsA[:0])
	ms.outsB = ms.copyInto(fb, ms.outsB[:0])
	xors := ms.xors[:0]
	for i := range ms.outsA {
		xors = append(xors, n.add(netlist.Xor, ms.outsA[i], ms.outsB[i]))
	}
	next := ms.xorsNext[:0]
	for len(xors) > 1 {
		next = next[:0]
		for i := 0; i < len(xors); i += 2 {
			if i+1 < len(xors) {
				next = append(next, n.add(netlist.Or, xors[i], xors[i+1]))
			} else {
				next = append(next, xors[i])
			}
		}
		xors, next = next, xors
	}
	ms.xors, ms.xorsNext = xors, next
	return xors[0]
}

// copyInto appends one copy of c with fault f injected (nil: none) and
// appends the copy's output lines to outs. Every line is numbered before
// any fanin is wired, so a gate may read one declared after it.
func (ms *miterSolver) copyInto(f *fault.Fault, outs []int32) []int32 {
	n, c := &ms.m, ms.c
	konst := int32(-1)
	if f != nil {
		t := netlist.Const0
		if f.Stuck != 0 {
			t = netlist.Const1
		}
		konst = n.add(t)
	}
	id := int32(len(n.typ))
	for i := range c.Gates {
		if c.Gates[i].Type == netlist.Input {
			ms.lineOf[i] = ms.slot[i]
		} else {
			ms.lineOf[i] = id
			id++
		}
	}
	if f != nil && f.IsStem() {
		ms.lineOf[f.Gate] = konst // readers of the stem see the constant
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Type == netlist.Input {
			continue
		}
		for pin, d := range g.Fanin {
			if f != nil && !f.IsStem() && f.Gate == int32(i) && int32(pin) == f.Pin {
				n.fanin = append(n.fanin, konst)
			} else {
				n.fanin = append(n.fanin, ms.lineOf[d])
			}
		}
		n.typ = append(n.typ, g.Type)
		n.faninOff = append(n.faninOff, int32(len(n.fanin)))
	}
	for _, po := range c.POs {
		outs = append(outs, ms.lineOf[po])
	}
	return outs
}

// detect decides by SAT on its detection miter whether fault f can be
// detected: Success with a detecting cube over c's inputs, Untestable
// when f is redundant, Aborted when the conflict budget runs out or the
// model fails re-simulation (mismatch). It also returns the solver's
// conflict count.
func (ms *miterSolver) detect(f fault.Fault, budget int64) (cube pattern.Vector, status Status, conflicts int64, mismatch bool) {
	out := ms.build(nil, &f)
	return ms.solve(out, budget, func(v pattern.Vector) bool { return VectorDetects(ms.c, f, v) })
}

// distinguish decides by SAT on their miter whether faults fa and fb can
// be told apart: Success with a distinguishing cube over c's inputs,
// Untestable when the pair is functionally equivalent, Aborted as for
// detect.
func (ms *miterSolver) distinguish(fa, fb fault.Fault, budget int64) (cube pattern.Vector, status Status, conflicts int64, mismatch bool) {
	out := ms.build(&fa, &fb)
	return ms.solve(out, budget, func(v pattern.Vector) bool { return Distinguishes(ms.c, fa, fb, v) })
}

// solve solves for the built miter's output and re-simulates a Success
// model on c with holds (VectorDetects or Distinguishes for the miter's
// faults). A model that fails the check is returned as Aborted with
// mismatch set, so a solver or encoder bug costs a test instead of
// shaping a dictionary. The model's X inputs lie outside the miter's
// cone, so the check fills them with 0 without affecting its verdict.
func (ms *miterSolver) solve(out int32, budget int64, holds func(pattern.Vector) bool) (cube pattern.Vector, status Status, conflicts int64, mismatch bool) {
	cube, status, conflicts = ms.enc.solve(&ms.m, out, budget)
	if status != Success {
		return cube, status, conflicts, false
	}
	filled := cube.Clone()
	for i, v := range filled {
		if v == logic.X {
			filled[i] = logic.Zero
		}
	}
	if !holds(filled) {
		return nil, Aborted, conflicts, true
	}
	return cube, Success, conflicts, false
}

// Distinguishes verifies by simulation that the fully specified vector vec
// yields different responses under fa and fb on combinational circuit c.
func Distinguishes(c *netlist.Circuit, fa, fb fault.Fault, vec pattern.Vector) bool {
	view := netlist.NewScanView(c)
	ra := sim.RefFaultOutputs(view, fa, vec)
	rb := sim.RefFaultOutputs(view, fb, vec)
	return !ra.Equal(rb)
}

// VectorDetects verifies by simulation that vec detects fault f on
// combinational circuit c.
func VectorDetects(c *netlist.Circuit, f fault.Fault, vec pattern.Vector) bool {
	view := netlist.NewScanView(c)
	good := goodOutputs(view, vec)
	return !sim.RefFaultOutputs(view, f, vec).Equal(good)
}

func goodOutputs(view *netlist.ScanView, vec pattern.Vector) logic.BitVec {
	vals := sim.EvalTernary(view, vec)
	out := logic.NewBitVec(view.NumOutputs())
	for slot, g := range view.Outputs {
		out.Set(slot, vals[g].Bit())
	}
	return out
}
