package atpg

import (
	"context"
	"math/rand"
	"testing"

	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/resp"
	"sddict/internal/sim"
)

// countDetections independently fault-simulates the whole test set and
// returns the per-fault detection counts — the ground truth the generator's
// bookkeeping is validated against.
func countDetections(view *netlist.ScanView, faults []fault.Fault, tests *pattern.Set) []int {
	s := sim.New(view)
	counts := make([]int, len(faults))
	for _, batch := range tests.Pack() {
		b := batch
		s.Apply(&b)
		for fi, f := range faults {
			eff := s.Propagate(f)
			for p := 0; p < b.Count; p++ {
				if eff.Detect&(1<<uint(p)) != 0 {
					counts[fi]++
				}
			}
		}
	}
	return counts
}

func TestGenerateDetectionOneDetect(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(1))
	col := fault.Collapse(comb)
	cfg := DefaultConfig(1)
	cfg.Seed = 9
	cfg.Compact = true
	tests, st := GenerateDetectionCtx(context.Background(), comb, col.Faults, cfg)
	if tests.Len() == 0 {
		t.Fatal("empty test set")
	}
	if st.Coverage() < 0.85 {
		t.Fatalf("coverage %.2f too low", st.Coverage())
	}
	// Ground truth: stats.Detected must match independent simulation.
	counts := countDetections(netlist.NewScanView(comb), col.Faults, tests)
	det := 0
	for _, c := range counts {
		if c > 0 {
			det++
		}
	}
	if det != st.Detected {
		t.Fatalf("stats.Detected = %d, simulation says %d", st.Detected, det)
	}
	// No duplicate tests.
	seen := map[string]bool{}
	for _, v := range tests.Vecs {
		k := v.Key()
		if seen[k] {
			t.Fatalf("duplicate test %s", k)
		}
		seen[k] = true
		if !v.FullySpecified() {
			t.Fatalf("test %s not fully specified", k)
		}
	}
}

func TestGenerateDetectionTenDetect(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(1))
	col := fault.Collapse(comb)
	cfg := DefaultConfig(10)
	cfg.Seed = 10
	tests, st := GenerateDetectionCtx(context.Background(), comb, col.Faults, cfg)
	counts := countDetections(netlist.NewScanView(comb), col.Faults, tests)
	nDet := 0
	for _, c := range counts {
		if c >= 10 {
			nDet++
		}
	}
	if nDet != st.NDetected {
		t.Fatalf("stats.NDetected = %d, simulation says %d", st.NDetected, nDet)
	}
	if float64(nDet) < 0.8*float64(st.Detected) {
		t.Fatalf("only %d/%d detected faults reach 10 detections", nDet, st.Detected)
	}
	// A 10-detect set must be larger than a compacted 1-detect set.
	cfg1 := DefaultConfig(1)
	cfg1.Seed = 10
	cfg1.Compact = true
	tests1, _ := GenerateDetectionCtx(context.Background(), comb, col.Faults, cfg1)
	if tests.Len() <= tests1.Len() {
		t.Errorf("10det (%d tests) not larger than 1det (%d tests)", tests.Len(), tests1.Len())
	}
}

// TestCompactPreservesCoverage: compaction must not lose any detected
// fault.
func TestCompactPreservesCoverage(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s344"].MustGenerate(3))
	col := fault.Collapse(comb)
	view := netlist.NewScanView(comb)
	r := rand.New(rand.NewSource(33))
	tests := pattern.NewSet(view.NumInputs())
	for i := 0; i < 200; i++ {
		tests.Add(pattern.Random(r, view.NumInputs()))
	}
	before := countDetections(view, col.Faults, tests)
	compacted, err := Compact(context.Background(), view, col.Faults, tests)
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Len() >= tests.Len() {
		t.Errorf("compaction did not shrink: %d -> %d", tests.Len(), compacted.Len())
	}
	after := countDetections(view, col.Faults, compacted)
	for fi := range col.Faults {
		if before[fi] > 0 && after[fi] == 0 {
			t.Fatalf("compaction lost fault %s", col.Faults[fi].Name(comb))
		}
	}
}

// TestGenerateDiagnosticImprovesResolution: the diagnostic extension must
// strictly reduce (or at worst keep) the number of response-identical fault
// pairs relative to the detection base, and every added test must be new.
func TestGenerateDiagnosticImprovesResolution(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s298"].MustGenerate(1))
	col := fault.Collapse(comb)
	cfg := DefaultConfig(1)
	cfg.Seed = 5
	cfg.Compact = true
	base, _ := GenerateDetectionCtx(context.Background(), comb, col.Faults, cfg)

	pairsOf := func(tests *pattern.Set) int64 {
		m, _ := pairsHelper(t, comb, col.Faults, tests)
		return m
	}
	basePairs := pairsOf(base)

	dcfg := DefaultDiagConfig()
	dcfg.Seed = 6
	diag, _, st := GenerateDiagnosticCtx(context.Background(), comb, col.Faults, base, nil, dcfg)
	if diag.Len() < base.Len() {
		t.Fatalf("diagnostic set smaller than base")
	}
	diagPairs := pairsOf(diag)
	if diagPairs > basePairs {
		t.Fatalf("diagnostic generation worsened resolution: %d -> %d", basePairs, diagPairs)
	}
	if st.AddedTests > 0 && diagPairs >= basePairs {
		t.Errorf("added %d tests but resolution unchanged (%d pairs)", st.AddedTests, diagPairs)
	}
	if st.IndistPairs != diagPairs {
		t.Fatalf("stats.IndistPairs = %d, recomputed %d", st.IndistPairs, diagPairs)
	}
	// The aborted+equivalent pairs bound the remaining groups' pair count
	// only loosely, but there must be no unmarked distinguishable pair
	// left when the generator stopped before MaxRounds.
	if st.Rounds < dcfg.MaxRounds && st.IndistPairs > st.Equivalent+st.Aborted {
		t.Logf("note: %d pairs remain with %d equivalent and %d aborted marks",
			st.IndistPairs, st.Equivalent, st.Aborted)
	}
}

// pairsHelper counts fault pairs with identical full responses under the
// test set, plus the number of distinct response groups.
func pairsHelper(t *testing.T, c *netlist.Circuit, faults []fault.Fault, tests *pattern.Set) (int64, int) {
	t.Helper()
	m, err := resp.BuildObsCtx(context.Background(), 0, netlist.NewScanView(c), faults, tests, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPartition(len(faults))
	for j := 0; j < m.K; j++ {
		p.RefineByClass(m.Class[j])
	}
	return p.Pairs(), len(p.GroupSizes())
}

// pollCounter is a context that counts its Err polls and reports
// context.Canceled from poll cancelAt on (never, when cancelAt is 0).
type pollCounter struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCounter) Err() error {
	c.polls++
	if c.cancelAt > 0 && c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestInterruptedPodemIsNoAbort: a PODEM run cut short by cancellation
// is not a backtrack-limit abort. Detection targets one s344 fault that
// only SAT proves redundant, so PODEM aborts on it twice and the second
// abort escalates to SAT. Cancelling anywhere in the second run must
// stop generation there: no SAT call, the run not counted in
// PodemAborts, and the fault neither Aborted nor Untestable.
func TestInterruptedPodemIsNoAbort(t *testing.T) {
	comb := netlist.Combinationalize(gen.Profiles["s344"].MustGenerate(2))
	faults := fault.Collapse(comb).Faults
	probe := DefaultConfig(10)
	probe.Seed = 3
	_, pst := GenerateDetectionCtx(context.Background(), comb, faults, probe)
	target := -1
	for i, p := range pst.Verdicts {
		if p.Kind == SATUntestable {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("s344 has no SAT-proven fault")
	}
	one := []fault.Fault{faults[target]}
	cfg := DefaultConfig(1)
	cfg.Seed = 3

	ref := &pollCounter{Context: context.Background()}
	_, st := GenerateDetectionCtx(ref, comb, one, cfg)
	if st.PodemAborts != 2 || st.SATCalls != 1 || st.Untestable != 1 {
		t.Fatalf("uninterrupted run: %+v, want two PODEM aborts settled by one SAT call", st)
	}
	// The last poll follows the second PODEM run, and the BacktrackLimit
	// flips before it each precede one of that run's polls.
	for back := 1; back <= cfg.BacktrackLimit; back += 10 {
		ctx := &pollCounter{Context: context.Background(), cancelAt: ref.polls - back}
		_, st := GenerateDetectionCtx(ctx, comb, one, cfg)
		if !st.Interrupted || st.PodemAborts != 1 || st.SATCalls != 0 || st.Aborted != 0 || st.Untestable != 0 {
			t.Fatalf("cancelled at poll %d of %d: %+v, want interrupted after one PODEM abort and no SAT call",
				ctx.cancelAt, ref.polls, st)
		}
	}
}
