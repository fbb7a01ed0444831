package sddict_test

import (
	"testing"

	"sddict/internal/atpg"
	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/resp"
)

// exhaustiveTests enumerates all input vectors of a small circuit.
func exhaustiveTests(width int) *pattern.Set {
	s := pattern.NewSet(width)
	for v := 0; v < 1<<uint(width); v++ {
		vec := make(pattern.Vector, width)
		for i := range vec {
			vec[i] = logic.FromBit(uint64(v >> uint(i) & 1))
		}
		s.Add(vec)
	}
	return s
}

// TestC17ExhaustivePipeline runs the entire stack on c17 with the
// exhaustive test set, where ground truth is absolute: the full dictionary
// partitions faults into their true functional-equivalence classes, and the
// same/different dictionary must reach that floor exactly (the paper's
// best-possible outcome).
func TestC17ExhaustivePipeline(t *testing.T) {
	c := gen.C17()
	col := fault.Collapse(c)
	tests := exhaustiveTests(5)
	m := resp.Build(netlist.NewScanView(c), col.Faults, tests)

	full := core.NewFull(m)
	pf := core.NewPassFail(m)
	opts := core.DefaultOptions
	opts.Seed = 1
	_, st := core.BuildSameDiff(m, opts)

	// Under the exhaustive set, indistinguished pairs of the full
	// dictionary are exactly the functionally equivalent pairs that
	// structural collapsing missed.
	fullInd := full.Indistinguished()
	t.Logf("c17 exhaustive: %d faults, full %d, p/f %d, s/d %d",
		m.N, fullInd, pf.Indistinguished(), st.IndistFinal)
	if st.IndistFinal != fullInd {
		t.Errorf("same/different (%d) did not reach the full floor (%d) on c17", st.IndistFinal, fullInd)
	}
	if pf.Indistinguished() < fullInd {
		t.Errorf("pass/fail beats full — impossible")
	}
	// Every pair's SAT verdict on its miter must agree with the exhaustive
	// set, checked by reference simulation as well as through the full
	// dictionary: a pair the exhaustive set leaves together is proven
	// equivalent, and every other pair gets a test that distinguishes it.
	p := full.Partition()
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			fa, fb := col.Faults[i], col.Faults[j]
			name := fa.Name(c) + ", " + fb.Name(c)
			same := p.Label(i) != core.Isolated && p.Label(i) == p.Label(j)
			equivalent := true
			for _, v := range tests.Vecs {
				if atpg.Distinguishes(c, fa, fb, v) {
					equivalent = false
					break
				}
			}
			if equivalent != same {
				t.Errorf("pair (%s): exhaustive simulation says equivalent=%v, full dictionary %v", name, equivalent, same)
			}
			miter, err := atpg.BuildMiter(c, fa, fb)
			if err != nil {
				t.Fatal(err)
			}
			cube, status, err := atpg.SolveOutputOne(miter, miter.POs[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case status == atpg.Aborted:
				t.Errorf("pair (%s): SAT ran out of budget", name)
			case (status == atpg.Untestable) != equivalent:
				t.Errorf("pair (%s): equivalent under exhaustive tests is %v, but SAT says %v", name, equivalent, status)
			case status == atpg.Success:
				v := cube.Clone()
				for k := range v {
					if v[k] == logic.X {
						v[k] = logic.Zero
					}
				}
				if !atpg.Distinguishes(c, fa, fb, v) {
					t.Errorf("pair (%s): SAT test %s does not distinguish it", name, v)
				}
			}
		}
	}
}

// TestPipelineAgreesAcrossRepresentations: building the dictionary on the
// sequential circuit's scan view and on its combinationalized form must
// produce identical matrices (same classes, same sizes) for the same tests.
func TestPipelineAgreesAcrossRepresentations(t *testing.T) {
	seq := gen.Profiles["s27"].MustGenerate(3)
	comb := netlist.Combinationalize(seq)
	seqView := netlist.NewScanView(seq)
	combView := netlist.NewScanView(comb)
	if seqView.NumInputs() != combView.NumInputs() || seqView.NumOutputs() != combView.NumOutputs() {
		t.Fatalf("views disagree: %dx%d vs %dx%d",
			seqView.NumInputs(), seqView.NumOutputs(), combView.NumInputs(), combView.NumOutputs())
	}
	tests := exhaustiveTests(seqView.NumInputs())
	if tests.Len() > 256 {
		tests.Vecs = tests.Vecs[:256]
	}

	// The fault lists differ structurally (comb adds observation buffers),
	// so compare through the fault-free responses and per-test class
	// counts of the shared stem faults on original gates.
	colSeq := fault.Collapse(seq)
	var shared []fault.Fault
	for _, f := range colSeq.Faults {
		if f.IsStem() && seq.Gates[f.Gate].Type != netlist.DFF {
			shared = append(shared, f)
		}
	}
	mSeq := resp.Build(seqView, shared, tests)
	mComb := resp.Build(combView, shared, tests)
	if mSeq.K != mComb.K || mSeq.M != mComb.M {
		t.Fatalf("matrix dims differ")
	}
	for j := 0; j < mSeq.K; j++ {
		if !mSeq.Vecs[j][0].Equal(mComb.Vecs[j][0]) {
			t.Fatalf("test %d: fault-free responses differ between representations", j)
		}
		for i := range shared {
			va := mSeq.Vecs[j][mSeq.Class[j][i]]
			vb := mComb.Vecs[j][mComb.Class[j][i]]
			if !va.Equal(vb) {
				t.Fatalf("test %d fault %s: responses differ between representations",
					j, shared[i].Name(seq))
			}
		}
	}
}

// TestEndToEndDeterminism: the entire pipeline must be reproducible for a
// fixed seed.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() (int, int64, int64) {
		c := gen.Profiles["s298"].MustGenerate(5)
		comb := netlist.Combinationalize(c)
		col := fault.Collapse(comb)
		cfg := atpg.DefaultConfig(3)
		cfg.Seed = 11
		tests, _ := atpg.GenerateDetection(comb, col.Faults, cfg)
		m := resp.Build(netlist.NewScanView(comb), col.Faults, tests)
		opts := core.DefaultOptions
		opts.Seed = 13
		opts.Calls1 = 5
		opts.MaxRestarts = 10
		_, st := core.BuildSameDiff(m, opts)
		return tests.Len(), core.NewPassFail(m).Indistinguished(), st.IndistFinal
	}
	k1, pf1, sd1 := run()
	k2, pf2, sd2 := run()
	if k1 != k2 || pf1 != pf2 || sd1 != sd2 {
		t.Fatalf("pipeline not deterministic: (%d,%d,%d) vs (%d,%d,%d)", k1, pf1, sd1, k2, pf2, sd2)
	}
}
