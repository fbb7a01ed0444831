package sim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/par"
	"sddict/internal/pattern"
)

// sweepAgrees runs one Sweep over batches of random patterns (the last
// one partial) at the given worker count, reusing the simulator and the
// sweep across batches, and checks every fault's detect word and effect
// against Propagate on a separate simulator.
func sweepAgrees(t testing.TB, r *rand.Rand, view *netlist.ScanView, faults []fault.Fault, batches, workers int) {
	t.Helper()
	s, ref := New(view), New(view)
	var sw Sweep
	pool := par.New(workers)
	for b := 0; b < batches; b++ {
		set := pattern.NewSet(view.NumInputs())
		count := 64
		if b == batches-1 {
			count = 1 + r.Intn(63)
		}
		for i := 0; i < count; i++ {
			set.Add(pattern.Random(r, view.NumInputs()))
		}
		batch := set.Pack()[0]
		s.Apply(&batch)
		ref.Apply(&batch)
		if err := sw.Run(context.Background(), pool, s, faults); err != nil {
			t.Fatal(err)
		}
		for i, f := range faults {
			want := ref.Propagate(f)
			got := sweepEffect(&sw, i)
			name := f.Name(view.C)
			if d := sw.Detect(i); d != want.Detect || got.Detect != want.Detect {
				t.Fatalf("%s batch %d workers %d fault %s: detect %#x (effect %#x), Propagate %#x",
					view.C.Name, b, workers, name, d, got.Detect, want.Detect)
			}
			if len(got.Diffs) != len(want.Diffs) {
				t.Fatalf("%s batch %d workers %d fault %s: diffs %+v, Propagate %+v",
					view.C.Name, b, workers, name, got.Diffs, want.Diffs)
			}
			for k := range want.Diffs {
				if got.Diffs[k] != want.Diffs[k] {
					t.Fatalf("%s batch %d workers %d fault %s: diff %d %+v, Propagate %+v",
						view.C.Name, b, workers, name, k, got.Diffs[k], want.Diffs[k])
				}
			}
		}
	}
}

// sweepEffect returns fault i's effect in Propagate's form: its root's
// flip effect masked by the fault's reach.
func sweepEffect(sw *Sweep, i int) Effect {
	var eff Effect
	if k := sw.Root(i); k >= 0 {
		for _, d := range sw.RootEffect(k).Diffs {
			if b := d.Bits & sw.reach[i]; b != 0 {
				eff.Diffs = append(eff.Diffs, OutputDiff{Slot: d.Slot, Bits: b})
				eff.Detect |= b
			}
		}
	}
	return eff
}

// TestSweepMatchesPropagate checks the FFR sweep against per-fault
// propagation on every collapsed fault of four benchmark profiles, in
// their sequential scan view (flip-flop D-pin branch faults included) and
// in the combinational form the pipeline simulates, at one and two
// workers.
func TestSweepMatchesPropagate(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for _, name := range []string{"s208", "s298", "s344", "s953"} {
		seq := gen.Profiles[name].MustGenerate(2)
		for _, c := range []*netlist.Circuit{seq, netlist.Combinationalize(seq)} {
			faults := fault.Collapse(c).Faults
			for _, workers := range []int{1, 2} {
				sweepAgrees(t, r, netlist.NewScanView(c), faults, 4, workers)
			}
		}
	}
}

// TestSweepCornerCases checks hand-built netlists for the cases the
// region rules single out, on the full uncollapsed fault universe.
func TestSweepCornerCases(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *netlist.Builder)
	}{
		// inv feeds both a flip-flop D pin and buf: the D-pin branch
		// fault is observed only at the flip-flop's pseudo output.
		{"dff-pin", func(b *netlist.Builder) {
			a := b.Input("a")
			inv := b.Gate(netlist.Not, "inv", a)
			ff := b.DFF("ff", inv)
			buf := b.Gate(netlist.Buf, "buf", inv)
			b.Output(b.Gate(netlist.And, "n", buf, ff))
		}},
		// x feeds two pins of one AND and one XOR: the sinks must be
		// evaluated with both pins flipped.
		{"two-pins", func(b *netlist.Builder) {
			a, c, d := b.Input("a"), b.Input("c"), b.Input("d")
			x := b.Gate(netlist.Or, "x", a, c)
			y := b.Gate(netlist.And, "y", x, d, x)
			z := b.Gate(netlist.Xor, "z", y, y)
			b.Output(b.Gate(netlist.Nor, "o", z, y, a))
		}},
		// m is a primary output and also feeds one gate: it is a root
		// although its fanout is one.
		{"observed-fanout-1", func(b *netlist.Builder) {
			a, c := b.Input("a"), b.Input("c")
			m := b.Gate(netlist.Nand, "m", a, c)
			b.Output(m)
			b.Output(b.Gate(netlist.Or, "o", m, c))
		}},
		// dead drives nothing and is not observed: its faults have no
		// effect, and its own fanin stays a region of its own.
		{"dead-gate", func(b *netlist.Builder) {
			a, c := b.Input("a"), b.Input("c")
			g := b.Gate(netlist.And, "g", a, c)
			b.Gate(netlist.Not, "dead", g)
			b.Output(b.Gate(netlist.Xnor, "o", a, c))
		}},
	}
	r := rand.New(rand.NewSource(5))
	for _, tc := range cases {
		b := netlist.NewBuilder(tc.name)
		tc.build(b)
		c, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, workers := range []int{1, 2} {
			sweepAgrees(t, r, netlist.NewScanView(c), fault.Universe(c), 3, workers)
		}
	}
}

// TestSweepCancelled checks that a cancelled sweep reports the context's
// error.
func TestSweepCancelled(t *testing.T) {
	c := gen.Profiles["s298"].MustGenerate(2)
	view := netlist.NewScanView(c)
	set := pattern.NewSet(view.NumInputs())
	set.Add(pattern.Random(rand.New(rand.NewSource(1)), view.NumInputs()))
	batch := set.Pack()[0]
	s := New(view)
	s.Apply(&batch)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sw Sweep
	for _, workers := range []int{1, 2} {
		if err := sw.Run(ctx, par.New(workers), s, fault.Collapse(c).Faults); err != context.Canceled {
			t.Fatalf("workers %d: cancelled sweep returned %v", workers, err)
		}
	}
}

// randomScanNetlist builds a random netlist with flip-flops, repeated
// fanins (a line on two pins of one sink), dead gates and observed lines
// that also drive logic.
func randomScanNetlist(r *rand.Rand, nIn, nDFF, nGates int) *netlist.Circuit {
	b := netlist.NewBuilder("fuzz")
	var lines []int32
	for i := 0; i < nIn; i++ {
		lines = append(lines, b.Input(fmt.Sprintf("i%d", i)))
	}
	ffs := make([]int32, nDFF)
	for i := range ffs {
		ffs[i] = b.DFF(fmt.Sprintf("q%d", i), lines[0]) // D set below
		lines = append(lines, ffs[i])
	}
	types := []netlist.GateType{netlist.Buf, netlist.Not, netlist.And, netlist.Nand,
		netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor}
	for i := 0; i < nGates; i++ {
		t := types[r.Intn(len(types))]
		k := 1
		if t != netlist.Buf && t != netlist.Not {
			k = 2 + r.Intn(3)
		}
		in := make([]int32, k)
		for p := range in {
			// Favour recent lines, so long single-fanout chains form.
			lo := len(lines) - 4
			if lo < 0 || r.Intn(3) == 0 {
				lo = 0
			}
			in[p] = lines[lo+r.Intn(len(lines)-lo)]
		}
		lines = append(lines, b.Gate(t, fmt.Sprintf("g%d", i), in...))
	}
	for _, ff := range ffs {
		b.SetFanin(ff, lines[r.Intn(len(lines))])
	}
	b.Output(lines[len(lines)-1])
	for _, g := range lines[nIn : len(lines)-1] {
		if r.Intn(6) == 0 {
			b.Output(g)
		}
	}
	return b.MustBuild()
}

// FuzzSweepMatchesPropagate checks the FFR sweep against per-fault
// propagation on random scan netlists, over the full fault universe.
func FuzzSweepMatchesPropagate(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed/2), uint8(8*seed))
	}
	f.Add(int64(99), uint8(12), uint8(6), uint8(150))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nDFF, nGates uint8) {
		r := rand.New(rand.NewSource(seed))
		c := randomScanNetlist(r, 1+int(nIn)%16, int(nDFF)%8, 1+int(nGates)%160)
		sweepAgrees(t, r, netlist.NewScanView(c), fault.Universe(c), 2, 1+r.Intn(3))
	})
}
