package atpg

import (
	"fmt"
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
)

// gateSpec is one logic gate of a generated netlist.
type gateSpec struct {
	t     netlist.GateType
	fanin []int32
}

// randomNetlist builds a combinational netlist of nIn inputs, optional
// constants and about nGates logic gates of every type, with multi-input
// XOR/XNOR and repeated fanins. A share of the gates are exact duplicates
// of earlier ones, and some runs of gates are rebuilt as twin
// sub-structures over the same lines — the first twin gate sometimes reads
// one different line, as a faulty miter copy does — so structural hashing
// has merges to make and merges it must not make.
func randomNetlist(r *rand.Rand, nIn, nGates int) *netlist.Circuit {
	b := netlist.NewBuilder("fuzz")
	var lines []int32
	for i := 0; i < nIn; i++ {
		lines = append(lines, b.Input(fmt.Sprintf("i%d", i)))
	}
	if r.Intn(2) == 0 {
		lines = append(lines, b.Const("k0", 0))
	}
	if r.Intn(2) == 0 {
		lines = append(lines, b.Const("k1", 1))
	}
	types := []netlist.GateType{netlist.Buf, netlist.Not, netlist.And, netlist.Nand,
		netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
	var specs []gateSpec
	var ids []int32
	add := func(sp gateSpec) {
		ids = append(ids, b.Gate(sp.t, fmt.Sprintf("g%d", len(specs)), sp.fanin...))
		specs = append(specs, sp)
		lines = append(lines, ids[len(ids)-1])
	}
	for len(specs) < nGates {
		switch k := r.Intn(8); {
		case k == 0 && len(specs) > 0:
			add(specs[r.Intn(len(specs))])
		case k == 1 && len(specs) > 1:
			// Rebuild the last w gates with fanins inside the window
			// redirected to the twins.
			w := 2 + r.Intn(min(5, len(specs)-1))
			first := len(specs) - w
			twin := make(map[int32]int32, w)
			for i := first; i < first+w; i++ {
				sp := gateSpec{t: specs[i].t, fanin: append([]int32(nil), specs[i].fanin...)}
				for pin, d := range sp.fanin {
					if td, ok := twin[d]; ok {
						sp.fanin[pin] = td
					}
				}
				if i == first && r.Intn(2) == 0 {
					sp.fanin[r.Intn(len(sp.fanin))] = lines[r.Intn(len(lines))]
				}
				add(sp)
				twin[ids[i]] = ids[len(ids)-1]
			}
		default:
			t := types[r.Intn(len(types))]
			n := 1
			if t != netlist.Buf && t != netlist.Not {
				n = 2 + r.Intn(3)
			}
			sp := gateSpec{t: t}
			for i := 0; i < n; i++ {
				sp.fanin = append(sp.fanin, lines[r.Intn(len(lines))])
			}
			add(sp)
		}
	}
	b.Output(ids[len(ids)-1])
	for _, g := range ids[:len(ids)-1] {
		if r.Intn(4) == 0 {
			b.Output(g)
		}
	}
	return b.MustBuild()
}

// shuffled returns c with its logic gates renumbered in a random order
// after the sources, so that, as in .bench files, many gates read a line
// declared after them.
func shuffled(r *rand.Rand, c *netlist.Circuit) *netlist.Circuit {
	b := netlist.NewBuilder(c.Name)
	id := make([]int32, len(c.Gates))
	var logic []int
	for g := range c.Gates {
		switch t := c.Gates[g].Type; {
		case t == netlist.Input:
			id[g] = b.Input(c.Gates[g].Name)
		case c.IsSource(int32(g)):
			id[g] = b.Gate(t, c.Gates[g].Name)
		default:
			logic = append(logic, g)
		}
	}
	r.Shuffle(len(logic), func(i, j int) { logic[i], logic[j] = logic[j], logic[i] })
	for _, g := range logic {
		id[g] = b.Gate(c.Gates[g].Type, c.Gates[g].Name)
	}
	for _, g := range logic {
		fanin := make([]int32, len(c.Gates[g].Fanin))
		for pin, d := range c.Gates[g].Fanin {
			fanin[pin] = id[d]
		}
		b.SetFanin(id[g], fanin...)
	}
	for _, o := range c.POs {
		b.Output(id[o])
	}
	return b.MustBuild()
}

// FuzzSolveOutputOneMatchesExhaustive: on random netlists of at most ten
// inputs, the production encoder's verdict for every logic gate, and the
// miter solver's for a detection and a pair miter of the netlist's
// faults, matches exhaustive simulation, and every Sat model drives its
// target to 1 in simulation.
func FuzzSolveOutputOneMatchesExhaustive(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed), uint8(4*seed))
	}
	f.Add(int64(99), uint8(10), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates uint8) {
		r := rand.New(rand.NewSource(seed))
		c := randomNetlist(r, 1+int(nIn)%10, 1+int(nGates)%60)
		// check compares a verdict on target of m with exhaustive
		// simulation; m is the named miter the production miter was
		// built like, or c itself.
		check := func(name string, m *netlist.Circuit, target int32, vec pattern.Vector, status Status) {
			want, ok := exhaustiveOne(m, target)
			if !ok {
				t.Fatalf("%s: cone too wide for the oracle", name)
			}
			switch {
			case status == Aborted:
				t.Fatalf("%s: budget-out", name)
			case (status == Success) != want:
				t.Fatalf("%s: verdict %v, exhaustive simulation says satisfiable=%v", name, status, want)
			case status == Success && !drivesOne(m, target, vec):
				t.Fatalf("%s: model %s does not drive the target to 1", name, vec)
			}
		}
		for g := range c.Gates {
			if !c.IsSource(int32(g)) {
				vec, status, _, err := solveOutputOne(c, int32(g), 0)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("gate %s", c.Gates[g].Name), c, int32(g), vec, status)
			}
		}
		faults := fault.Collapse(c).Faults
		if len(faults) < 2 {
			return
		}
		fa, fb := faults[r.Intn(len(faults))], faults[r.Intn(len(faults))]
		ms := newMiterSolver(c)
		for _, pair := range []bool{false, true} {
			var m *netlist.Circuit
			var err error
			var out int32
			if pair {
				m, err = BuildMiter(c, fa, fb)
				out = ms.build(&fa, &fb)
			} else {
				m, err = BuildDetectionMiter(c, fa)
				out = ms.build(nil, &fa)
			}
			if err != nil {
				t.Fatal(err)
			}
			vec, status, _ := ms.enc.solve(&ms.m, out, 0)
			check(m.Name, m, m.POs[0], vec, status)
		}
	})
}

// FuzzMiterCNFMatchesReference: on random netlists, half of them with
// their gates shuffled into forward references, for a random fault pair
// and a random fault's detection miter, the production miterSolver and
// coneEncoder build the same gates, variables and clauses as the
// named-netlist reference and solve to the same verdict, conflict count
// and model (encoderIdentity).
func FuzzMiterCNFMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed), uint8(6*seed))
	}
	f.Add(int64(99), uint8(20), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates uint8) {
		r := rand.New(rand.NewSource(seed))
		c := randomNetlist(r, 1+int(nIn)%24, 1+int(nGates)%120)
		if r.Intn(2) == 0 {
			c = shuffled(r, c)
		}
		faults := fault.Collapse(c).Faults
		if len(faults) < 2 {
			return
		}
		ms := newMiterSolver(c)
		fa, fb := faults[r.Intn(len(faults))], faults[r.Intn(len(faults))]
		encoderIdentity(t, ms, &fa, fb, 2000)
		encoderIdentity(t, ms, nil, faults[r.Intn(len(faults))], 2000)
	})
}
