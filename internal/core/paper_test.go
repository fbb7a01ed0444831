package core

import (
	"testing"

	"sddict/internal/logic"
	"sddict/internal/resp"
)

// bv parses a 0/1 string into a bit vector (bit 0 = first output).
func bv(t *testing.T, s string) logic.BitVec {
	t.Helper()
	v := logic.NewBitVec(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			v.Set(i, 1)
		default:
			t.Fatalf("bad bit string %q", s)
		}
	}
	return v
}

// paperMatrix reconstructs the worked example of the paper's Section 2:
// four faults f0..f3 under two tests t0, t1 in a two-output circuit
// (Table 1). The output vectors are recovered from the narrative and
// Tables 2-5:
//
//	         t0   t1
//	ff       00   11
//	f0       00   10
//	f1       10   11
//	f2       01   10
//	f3       01   01
func paperMatrix(t *testing.T) *resp.Matrix {
	t.Helper()
	ff := []logic.BitVec{bv(t, "00"), bv(t, "11")}
	responses := [][]logic.BitVec{
		{bv(t, "00"), bv(t, "10"), bv(t, "01"), bv(t, "01")}, // t0: f0..f3
		{bv(t, "10"), bv(t, "11"), bv(t, "10"), bv(t, "01")}, // t1: f0..f3
	}
	return resp.FromResponses(2, ff, responses)
}

// TestPaperTable1 checks the full dictionary of the worked example: it
// distinguishes every fault pair ("The full fault dictionary distinguishes
// between all the pairs of faults based on their output vectors").
func TestPaperTable1(t *testing.T) {
	m := paperMatrix(t)
	full := NewFull(m)
	if got := full.Indistinguished(); got != 0 {
		t.Fatalf("full dictionary leaves %d pairs indistinguished, want 0", got)
	}
	// Spot-check the narrative: f0,f1 distinguished by t0; f2,f3 by t1.
	if m.Class[0][0] == m.Class[0][1] {
		t.Errorf("t0 should distinguish f0 and f1 in the full dictionary")
	}
	if m.Class[1][2] == m.Class[1][3] {
		t.Errorf("t1 should distinguish f2 and f3 in the full dictionary")
	}
}

// TestPaperTable2 checks the pass/fail dictionary: it distinguishes all
// pairs except (f2, f3), and its bits match Table 2.
func TestPaperTable2(t *testing.T) {
	m := paperMatrix(t)
	pf := NewPassFail(m)
	if got := pf.Indistinguished(); got != 1 {
		t.Fatalf("pass/fail leaves %d pairs, want exactly 1 (f2,f3)", got)
	}
	p := pf.Partition()
	if p.Label(2) == Isolated || p.Label(2) != p.Label(3) {
		t.Errorf("the surviving indistinguished pair should be (f2,f3)")
	}
	// Table 2 bits: b_{i,j} = 1 iff z_{i,j} != z_{ff,j}.
	wantBits := [4][2]uint8{
		{0, 1}, // f0: passes t0, fails t1
		{1, 0}, // f1
		{1, 1}, // f2
		{1, 1}, // f3
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			if got := pf.Bit(i, j); got != wantBits[i][j] {
				t.Errorf("pass/fail bit f%d,t%d = %d, want %d", i, j, got, wantBits[i][j])
			}
		}
	}
}

// TestPaperTable3 checks the same/different dictionary with the paper's
// baselines z_bl,0 = 01 and z_bl,1 = 10: it reaches full resolution, and
// the bits match Table 3's narrative (f0/f1 and f2/f3 both distinguished
// by t1).
func TestPaperTable3(t *testing.T) {
	m := paperMatrix(t)
	// Find the class ids of the baseline vectors.
	b0 := classOf(t, m, 0, "01")
	b1 := classOf(t, m, 1, "10")
	sd := &Dictionary{Kind: SameDiff, M: m, Baselines: []int32{b0, b1}}
	if got := sd.Indistinguished(); got != 0 {
		t.Fatalf("same/different with paper baselines leaves %d pairs, want 0", got)
	}
	if sd.Bit(0, 1) == sd.Bit(1, 1) {
		t.Errorf("t1 should distinguish f0 and f1 (b_0,1 != b_1,1)")
	}
	if sd.Bit(2, 1) == sd.Bit(3, 1) {
		t.Errorf("t1 should distinguish f2 and f3 (b_2,1 != b_3,1)")
	}
}

func classOf(t *testing.T, m *resp.Matrix, j int, s string) int32 {
	t.Helper()
	want := bv(t, s)
	for c, v := range m.Vecs[j] {
		if v.Equal(want) {
			return int32(c)
		}
	}
	t.Fatalf("vector %q not in Z_%d", s, j)
	return -1
}

// TestPaperTable4 reproduces the selection of z_bl,0: candidates 00, 10, 01
// distinguish 3, 3 and 4 of the six initial fault pairs respectively, so 01
// is selected.
func TestPaperTable4(t *testing.T) {
	m := paperMatrix(t)
	p := NewPartition(m.N)
	var sc distScratch
	dist := sc.perClass(p, m.Class[0], m.NumClasses(0))
	want := map[string]int64{"00": 3, "10": 3, "01": 4}
	for s, w := range want {
		c := classOf(t, m, 0, s)
		if dist[c] != w {
			t.Errorf("dist(%s) = %d, want %d", s, dist[c], w)
		}
	}
	var evals, cutoffs int64
	best := selectWithLower(dist, 10, &evals, &cutoffs)
	if best != classOf(t, m, 0, "01") {
		t.Errorf("selected baseline %d, want class of 01", best)
	}
}

// TestPaperTable5 reproduces the selection of z_bl,1 after z_bl,0 = 01:
// candidates 11, 10, 01 distinguish 1, 2 and 1 of the remaining two pairs,
// so 10 is selected and all pairs are distinguished.
func TestPaperTable5(t *testing.T) {
	m := paperMatrix(t)
	p := NewPartition(m.N)
	p.RefineByBaseline(m.Class[0], classOf(t, m, 0, "01"))
	if got := p.Pairs(); got != 2 {
		t.Fatalf("after z_bl,0=01, %d pairs remain, want 2", got)
	}
	var sc distScratch
	dist := sc.perClass(p, m.Class[1], m.NumClasses(1))
	want := map[string]int64{"11": 1, "10": 2, "01": 1}
	for s, w := range want {
		c := classOf(t, m, 1, s)
		if dist[c] != w {
			t.Errorf("dist(%s) = %d, want %d", s, dist[c], w)
		}
	}
	var evals, cutoffs int64
	best := selectWithLower(dist, 10, &evals, &cutoffs)
	if best != classOf(t, m, 1, "10") {
		t.Errorf("selected baseline %d, want class of 10", best)
	}
	p.RefineByBaseline(m.Class[1], best)
	if got := p.Pairs(); got != 0 {
		t.Errorf("after z_bl,1=10, %d pairs remain, want 0", got)
	}
}

// TestPaperProcedure1EndToEnd runs the full Procedure 1 driver on the
// worked example: it must find baselines reaching full resolution, beating
// the pass/fail dictionary, with sizes ordered per Section 2.
func TestPaperProcedure1EndToEnd(t *testing.T) {
	m := paperMatrix(t)
	opt := DefaultOptions
	opt.Seed = 1
	sd, st := mustBuildSameDiff(t, m, opt)
	if st.IndistFinal != 0 {
		t.Fatalf("Procedure 1+2 left %d pairs, want 0", st.IndistFinal)
	}
	if got := sd.Indistinguished(); got != 0 {
		t.Fatalf("returned dictionary disagrees with stats: %d pairs", got)
	}
	full, pf := NewFull(m), NewPassFail(m)
	if !(pf.SizeBits() < sd.NominalSizeBits() && sd.NominalSizeBits() < full.SizeBits()) {
		t.Errorf("size ordering violated: pf=%d sd=%d full=%d",
			pf.SizeBits(), sd.NominalSizeBits(), full.SizeBits())
	}
	// Section 2 size accounting: k=2, n=4, m=2.
	if full.SizeBits() != 16 || pf.SizeBits() != 8 || sd.NominalSizeBits() != 12 {
		t.Errorf("sizes = full %d, pf %d, sd %d; want 16, 8, 12",
			full.SizeBits(), pf.SizeBits(), sd.NominalSizeBits())
	}
}
