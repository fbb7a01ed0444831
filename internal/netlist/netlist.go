// Package netlist represents gate-level circuits: combinational logic plus
// D flip-flops, as used by the ISCAS-89 benchmark family. It provides the
// structural services every other layer builds on — construction, validity
// checking, levelization, topological ordering, fanout computation, and the
// full-scan view that turns flip-flops into pseudo inputs and outputs.
package netlist

import (
	"errors"
	"fmt"
)

// GateType enumerates the supported primitives.
type GateType uint8

// Gate primitives. Input is a primary input; Const0/Const1 are constant
// drivers (used for structural fault injection); DFF is a D flip-flop whose
// single fanin is the D line and whose output is Q.
const (
	Input GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	DFF
	numGateTypes
)

var gateNames = [numGateTypes]string{
	"INPUT", "CONST0", "CONST1", "BUFF", "NOT",
	"AND", "NAND", "OR", "NOR", "XOR", "XNOR", "DFF",
}

func (t GateType) String() string {
	if int(t) < len(gateNames) {
		return gateNames[t]
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// MinFanin returns the minimum legal fanin count for the type.
func (t GateType) MinFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count (0 means none allowed).
func (t GateType) MaxFanin() int {
	switch t {
	case Input, Const0, Const1:
		return 0
	case Buf, Not, DFF:
		return 1
	default:
		return 1 << 20 // effectively unbounded
	}
}

// Gate is one node of the circuit graph. Its output line is identified with
// the gate index; Fanin lists the driving gate indices in pin order.
type Gate struct {
	Name  string
	Type  GateType
	Fanin []int32
}

// Circuit is an immutable gate-level netlist produced by a Builder or a
// parser. Index 0..len(Gates)-1 identifies both a gate and its output line.
type Circuit struct {
	Name  string
	Gates []Gate
	// POs lists gate indices designated as primary outputs, in declaration
	// order. A gate may appear at most once.
	POs []int32
	// PIs lists the Input gates in declaration order.
	PIs []int32
	// DFFs lists the DFF gates in declaration order.
	DFFs []int32

	fanout [][]int32
	level  []int32
	order  []int32
}

// NumGates returns the total node count, including inputs and flip-flops.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumLogicGates returns the count of combinational logic gates (everything
// except Input, constants and DFF nodes), matching how benchmark "gate
// counts" are usually quoted.
func (c *Circuit) NumLogicGates() int {
	n := 0
	for i := range c.Gates {
		switch c.Gates[i].Type {
		case Input, Const0, Const1, DFF:
		default:
			n++
		}
	}
	return n
}

// Fanout returns the fanout gate list of gate g. The returned slice is
// shared; callers must not modify it.
func (c *Circuit) Fanout(g int32) []int32 { return c.fanout[g] }

// FanoutCount returns len(Fanout(g)) counting each sink pin once; a gate
// feeding two pins of the same sink is counted twice.
func (c *Circuit) FanoutCount(g int32) int { return len(c.fanout[g]) }

// Level returns the combinational level of gate g: inputs, constants and
// DFF outputs are level 0; every other gate is 1 + max(level of fanin).
func (c *Circuit) Level(g int32) int32 { return c.level[g] }

// MaxLevel returns the largest combinational level in the circuit.
func (c *Circuit) MaxLevel() int32 {
	var m int32
	for _, l := range c.level {
		if l > m {
			m = l
		}
	}
	return m
}

// Order returns a topological order of all gates for combinational
// evaluation: sources (inputs, constants, DFF outputs) first, then each gate
// after all its fanins. DFF fanin edges are excluded from the dependency
// relation (a DFF's Q does not combinationally depend on D). The returned
// slice is shared; callers must not modify it.
func (c *Circuit) Order() []int32 { return c.order }

// IsSource reports whether gate g is a combinational source (Input,
// constant, or DFF output).
func (c *Circuit) IsSource(g int32) bool {
	switch c.Gates[g].Type {
	case Input, Const0, Const1, DFF:
		return true
	}
	return false
}

// finalize validates the structure and computes the derived tables.
func (c *Circuit) finalize() error {
	n := len(c.Gates)
	if n == 0 {
		return errors.New("netlist: empty circuit")
	}
	c.PIs = c.PIs[:0]
	c.DFFs = c.DFFs[:0]
	for i := range c.Gates {
		g := &c.Gates[i]
		if int(g.Type) >= int(numGateTypes) {
			return fmt.Errorf("netlist: gate %d (%s): invalid type", i, g.Name)
		}
		if len(g.Fanin) < g.Type.MinFanin() || len(g.Fanin) > g.Type.MaxFanin() {
			return fmt.Errorf("netlist: gate %d (%s): %s with %d fanins",
				i, g.Name, g.Type, len(g.Fanin))
		}
		for _, f := range g.Fanin {
			if f < 0 || int(f) >= n {
				return fmt.Errorf("netlist: gate %d (%s): fanin %d out of range", i, g.Name, f)
			}
		}
		switch g.Type {
		case Input:
			c.PIs = append(c.PIs, int32(i))
		case DFF:
			c.DFFs = append(c.DFFs, int32(i))
		}
	}
	seenPO := make(map[int32]bool, len(c.POs))
	for _, p := range c.POs {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("netlist: primary output %d out of range", p)
		}
		if seenPO[p] {
			return fmt.Errorf("netlist: gate %d (%s) listed as primary output twice", p, c.Gates[p].Name)
		}
		seenPO[p] = true
	}

	// Fanout.
	c.fanout = make([][]int32, n)
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			c.fanout[f] = append(c.fanout[f], int32(i))
		}
	}

	// Topological order via Kahn's algorithm over combinational edges.
	indeg := make([]int32, n)
	for i := range c.Gates {
		if c.Gates[i].Type == DFF {
			continue // Q does not combinationally depend on D
		}
		indeg[i] = int32(len(c.Gates[i].Fanin))
	}
	c.order = make([]int32, 0, n)
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		c.order = append(c.order, g)
		for _, s := range c.fanout[g] {
			if c.Gates[s].Type == DFF {
				continue // a DFF's Q does not wait for its D line
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	// DFF gates were enqueued as sources above only if indeg==0, which holds
	// (their indeg was never initialized from fanins). All gates must appear.
	if len(c.order) != n {
		return errors.New("netlist: combinational cycle detected")
	}

	// Levels in topological order.
	c.level = make([]int32, n)
	for _, g := range c.order {
		if c.IsSource(g) {
			c.level[g] = 0
			continue
		}
		var m int32 = -1
		for _, f := range c.Gates[g].Fanin {
			if c.level[f] > m {
				m = c.level[f]
			}
		}
		c.level[g] = m + 1
	}
	// A DFF's D line still needs a level even though Q is a source; the loop
	// above already handled that because the D line is an ordinary gate.
	return nil
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	n := &Circuit{Name: c.Name}
	n.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		n.Gates[i] = Gate{Name: g.Name, Type: g.Type, Fanin: append([]int32(nil), g.Fanin...)}
	}
	n.POs = append([]int32(nil), c.POs...)
	if err := n.finalize(); err != nil {
		// The source circuit was valid, so the copy must be too.
		panic("netlist: Clone: " + err.Error())
	}
	return n
}

// GateByName returns the index of the gate with the given name, or -1.
func (c *Circuit) GateByName(name string) int32 {
	for i := range c.Gates {
		if c.Gates[i].Name == name {
			return int32(i)
		}
	}
	return -1
}

// Stats summarizes a circuit for reports.
type Stats struct {
	Name       string
	PIs        int
	POs        int
	DFFs       int
	LogicGates int
	Levels     int32
}

// Stat returns the circuit's summary statistics.
func (c *Circuit) Stat() Stats {
	return Stats{
		Name:       c.Name,
		PIs:        len(c.PIs),
		POs:        len(c.POs),
		DFFs:       len(c.DFFs),
		LogicGates: c.NumLogicGates(),
		Levels:     c.MaxLevel(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PI, %d PO, %d DFF, %d gates, depth %d",
		s.Name, s.PIs, s.POs, s.DFFs, s.LogicGates, s.Levels)
}
