package resp

import (
	"context"
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// mustBuild fault-simulates faults under tests with one worker per CPU.
func mustBuild(tb testing.TB, view *netlist.ScanView, faults []fault.Fault, tests *pattern.Set) *Matrix {
	tb.Helper()
	m, err := BuildObsCtx(context.Background(), 0, view, faults, tests, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestBuildMatchesScalarReference: every Class/Vecs entry must agree with
// naive scalar faulty simulation.
func TestBuildMatchesScalarReference(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	c := gen.Profiles["s27"].MustGenerate(15)
	view := netlist.NewScanView(c)
	col := fault.Collapse(c)
	tests := pattern.NewSet(view.NumInputs())
	for i := 0; i < 70; i++ { // crosses a batch boundary
		tests.Add(pattern.Random(r, view.NumInputs()))
	}
	m := mustBuild(t, view, col.Faults, tests)
	if m.N != len(col.Faults) || m.K != 70 || m.M != view.NumOutputs() {
		t.Fatalf("dims N=%d K=%d M=%d", m.N, m.K, m.M)
	}
	for j := 0; j < m.K; j++ {
		// Class 0 is the fault-free response.
		goodVals := sim.EvalTernary(view, tests.Vecs[j])
		good := logic.NewBitVec(m.M)
		for slot, g := range view.Outputs {
			good.Set(slot, goodVals[g].Bit())
		}
		if !m.Vecs[j][0].Equal(good) {
			t.Fatalf("test %d: class 0 vector is not the fault-free response", j)
		}
		for i, f := range col.Faults {
			want := sim.RefFaultOutputs(view, f, tests.Vecs[j])
			got := m.Vecs[j][m.Class[j][i]]
			if !got.Equal(want) {
				t.Fatalf("test %d fault %s: matrix %s, reference %s",
					j, f.Name(c), got.String(m.M), want.String(m.M))
			}
			if m.Detected(j, i) != !want.Equal(good) {
				t.Fatalf("test %d fault %s: Detected mismatch", j, f.Name(c))
			}
		}
		// Vectors within a test must be pairwise distinct (deduplication).
		for a := 0; a < m.NumClasses(j); a++ {
			for b := a + 1; b < m.NumClasses(j); b++ {
				if m.Vecs[j][a].Equal(m.Vecs[j][b]) {
					t.Fatalf("test %d: classes %d and %d share a vector", j, a, b)
				}
			}
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	m := &Matrix{N: 100, K: 20, M: 7}
	if m.FullSizeBits() != 100*20*7 {
		t.Errorf("full size %d", m.FullSizeBits())
	}
	if m.PassFailSizeBits() != 100*20 {
		t.Errorf("p/f size %d", m.PassFailSizeBits())
	}
	if m.SameDiffSizeBits() != 20*(100+7) {
		t.Errorf("s/d size %d", m.SameDiffSizeBits())
	}
}

func TestFromResponses(t *testing.T) {
	mk := func(s string) logic.BitVec {
		v := logic.NewBitVec(len(s))
		for i, c := range s {
			if c == '1' {
				v.Set(i, 1)
			}
		}
		return v
	}
	ff := []logic.BitVec{mk("00")}
	m := FromResponses(2, ff, [][]logic.BitVec{{mk("00"), mk("01"), mk("01"), mk("11")}})
	if m.N != 4 || m.K != 1 || m.NumClasses(0) != 3 {
		t.Fatalf("dims N=%d K=%d classes=%d", m.N, m.K, m.NumClasses(0))
	}
	if m.Class[0][0] != 0 {
		t.Errorf("fault 0 should share the fault-free class")
	}
	if m.Class[0][1] != m.Class[0][2] {
		t.Errorf("identical responses must share a class")
	}
	if m.Class[0][1] == m.Class[0][3] {
		t.Errorf("different responses must not share a class")
	}
	if m.DetectedCount(0) != 3 {
		t.Errorf("DetectedCount = %d, want 3", m.DetectedCount(0))
	}
}

// TestBuildForCircuit: a matrix built for a whole circuit — its full-scan
// view and collapsed faults — has one row per fault, one column per test
// and one output bit per scan output.
func TestBuildForCircuit(t *testing.T) {
	c := gen.C17()
	r := rand.New(rand.NewSource(8))
	tests := pattern.NewSet(5)
	for i := 0; i < 16; i++ {
		tests.Add(pattern.Random(r, 5))
	}
	faults := fault.Collapse(c).Faults
	m := mustBuild(t, netlist.NewScanView(c), faults, tests)
	if m.N != len(faults) || m.K != 16 || m.M != 2 {
		t.Fatalf("dims N=%d/%d K=%d M=%d", m.N, len(faults), m.K, m.M)
	}
}

// TestBuildWorkersIdentical pins the determinism contract of the sharded
// capture: the response matrix must be byte-identical at every worker
// count, because sddlint-checked consumers assume matrices are stable
// artifacts of (circuit, test set) alone.
func TestBuildWorkersIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	c := gen.Profiles["s27"].MustGenerate(21)
	view := netlist.NewScanView(c)
	col := fault.Collapse(c)
	tests := pattern.NewSet(view.NumInputs())
	for i := 0; i < 130; i++ { // three batches, last one partial
		tests.Add(pattern.Random(r, view.NumInputs()))
	}
	ref, err := BuildObsCtx(context.Background(), 1, view, col.Faults, tests, nil)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	for _, workers := range []int{2, 4, 7} {
		m, err := BuildObsCtx(context.Background(), workers, view, col.Faults, tests, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.N != ref.N || m.K != ref.K || m.M != ref.M {
			t.Fatalf("workers=%d: dims %d/%d/%d != %d/%d/%d", workers, m.N, m.K, m.M, ref.N, ref.K, ref.M)
		}
		for j := 0; j < ref.K; j++ {
			if m.NumClasses(j) != ref.NumClasses(j) {
				t.Fatalf("workers=%d test %d: %d classes, want %d", workers, j, m.NumClasses(j), ref.NumClasses(j))
			}
			for i := range ref.Class[j] {
				if m.Class[j][i] != ref.Class[j][i] {
					t.Fatalf("workers=%d test %d fault %d: class %d, want %d",
						workers, j, i, m.Class[j][i], ref.Class[j][i])
				}
			}
			for cls := range ref.Vecs[j] {
				if !m.Vecs[j][cls].Equal(ref.Vecs[j][cls]) {
					t.Fatalf("workers=%d test %d class %d: vector differs", workers, j, cls)
				}
			}
		}
	}
}

// sameMatrix fails unless a and b hold the same dimensions, class rows
// and class vectors.
func sameMatrix(tb testing.TB, a, b *Matrix) {
	tb.Helper()
	if a.N != b.N || a.K != b.K || a.M != b.M {
		tb.Fatalf("dims %d/%d/%d != %d/%d/%d", a.N, a.K, a.M, b.N, b.K, b.M)
	}
	for j := 0; j < a.K; j++ {
		if a.NumClasses(j) != b.NumClasses(j) {
			tb.Fatalf("test %d: %d classes, want %d", j, a.NumClasses(j), b.NumClasses(j))
		}
		for i := range a.Class[j] {
			if a.Class[j][i] != b.Class[j][i] {
				tb.Fatalf("test %d fault %d: class %d, want %d", j, i, a.Class[j][i], b.Class[j][i])
			}
		}
		for cls := range a.Vecs[j] {
			if !a.Vecs[j][cls].Equal(b.Vecs[j][cls]) {
				tb.Fatalf("test %d class %d: vector differs", j, cls)
			}
		}
	}
}

// TestAppendMatchesWholeCapture: capturing a prefix and the rest of a
// test set separately and appending must give the whole set's matrix,
// wherever the split falls relative to the 64-pattern batches.
func TestAppendMatchesWholeCapture(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	c := gen.Profiles["s298"].MustGenerate(3)
	view := netlist.NewScanView(c)
	faults := fault.Collapse(c).Faults
	tests := pattern.NewSet(view.NumInputs())
	for i := 0; i < 150; i++ {
		tests.Add(pattern.Random(r, view.NumInputs()))
	}
	whole := mustBuild(t, view, faults, tests)
	for _, k := range []int{0, 37, 64, 150} {
		head, tail := pattern.NewSet(tests.Width), pattern.NewSet(tests.Width)
		head.Vecs, tail.Vecs = tests.Vecs[:k], tests.Vecs[k:]
		sameMatrix(t, mustBuild(t, view, faults, head).Append(mustBuild(t, view, faults, tail)), whole)
	}
}
