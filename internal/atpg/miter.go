package atpg

import (
	"context"
	"fmt"

	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// BuildMiter constructs the distinguishing miter of two faults over a
// combinational circuit: two copies of the circuit sharing the primary
// inputs, with fa injected in copy A and fb in copy B, every output pair
// XORed and the XORs ORed into a single output. Any input vector that sets
// the miter output to 1 produces different responses under the two faults,
// i.e. distinguishes the pair; the miter output is 1-satisfiable exactly
// when the pair is distinguishable.
//
// The miter's primary inputs are in the same order as c's, so test cubes
// found on the miter apply directly to c.
func BuildMiter(c *netlist.Circuit, fa, fb fault.Fault) (*netlist.Circuit, error) {
	return buildMiter(c, &fa, &fb, fmt.Sprintf("miter(%s,%s)", fa.Name(c), fb.Name(c)))
}

// BuildDetectionMiter constructs the miter of the fault-free circuit and a
// copy with f injected: inputs driving its output to 1 are exactly the
// tests detecting f. Together with a SAT solver this is a complete test
// generator and redundancy prover.
func BuildDetectionMiter(c *netlist.Circuit, f fault.Fault) (*netlist.Circuit, error) {
	return buildMiter(c, nil, &f, fmt.Sprintf("detect(%s)", f.Name(c)))
}

// buildMiter builds a two-copy XOR/OR miter; a nil fault leaves that copy
// fault-free.
func buildMiter(c *netlist.Circuit, fa, fb *fault.Fault, name string) (*netlist.Circuit, error) {
	if len(c.DFFs) != 0 {
		return nil, fmt.Errorf("atpg: miter requires a combinational circuit")
	}
	b := netlist.NewBuilder(name)
	pis := make([]int32, len(c.PIs))
	for i, pi := range c.PIs {
		pis[i] = b.Input(c.Gates[pi].Name)
	}

	// copyInto adds one (possibly faulty) copy of the circuit and returns
	// its primary output lines.
	copyInto := func(tag string, f *fault.Fault) []int32 {
		var konst int32
		if f != nil {
			konst = b.Const(fmt.Sprintf("%s_sa%d", tag, f.Stuck), int(f.Stuck))
		}
		lineOf := make([]int32, len(c.Gates)) // value line seen by readers of each gate
		piIdx := 0
		for i := range c.Gates {
			g := &c.Gates[i]
			var ng int32
			if g.Type == netlist.Input {
				ng = pis[piIdx]
				piIdx++
			} else {
				fanin := make([]int32, len(g.Fanin))
				for pin, d := range g.Fanin {
					if f != nil && !f.IsStem() && f.Gate == int32(i) && int32(pin) == f.Pin {
						fanin[pin] = konst
					} else {
						fanin[pin] = lineOf[d]
					}
				}
				ng = b.Gate(g.Type, tag+"_"+g.Name, fanin...)
			}
			if f != nil && f.IsStem() && f.Gate == int32(i) {
				lineOf[i] = konst
			} else {
				lineOf[i] = ng
			}
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

// Distinguish searches for a test that produces different output responses
// under faults fa and fb on the combinational circuit c. It runs PODEM on
// the miter, targeting stuck-at-0 on the miter output (whose test is any
// vector driving the output to 1). The returned cube is over c's inputs.
func Distinguish(c *netlist.Circuit, fa, fb fault.Fault, backtrackLimit int) (pattern.Vector, Status, error) {
	return DistinguishCtx(context.Background(), c, fa, fb, backtrackLimit)
}

// DistinguishCtx is Distinguish under a context: a cancelled or expired
// context aborts the miter PODEM run (status Aborted, no error).
func DistinguishCtx(ctx context.Context, c *netlist.Circuit, fa, fb fault.Fault, backtrackLimit int) (pattern.Vector, Status, error) {
	m, err := BuildMiter(c, fa, fb)
	if err != nil {
		return nil, Aborted, err
	}
	cube, status := distinguishMiter(ctx, m, backtrackLimit)
	return cube, status, nil
}

// distinguishMiter runs PODEM on a built miter m, targeting stuck-at-0 on
// its output. Miter PIs are ordered like the circuit's, so the cube maps
// across directly; it is nil unless the status is Success.
func distinguishMiter(ctx context.Context, m *netlist.Circuit, backtrackLimit int) (pattern.Vector, Status) {
	e := NewEngine(m)
	e.BacktrackLimit = backtrackLimit
	e.SetContext(ctx)
	cube, status := e.Generate(fault.Fault{Gate: m.POs[0], Pin: fault.StemPin, Stuck: 0})
	if status != Success {
		return nil, status
	}
	return cube, Success
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
