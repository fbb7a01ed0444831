package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// Property tests pinning the maintained partition engine — member scan and
// detected-index scan — to the scalar reference implementations in
// partition_ref.go. The contract under test is the one DESIGN.md §14
// relies on: both paths produce bit-identical labels,
// removed-pair counts, dist values, and LOWER counter movements, so the
// per-test path choice can never perturb an artifact.

// cloneLabels snapshots a partition as the bare label array the reference
// implementations operate on.
func cloneLabels(p *Partition) []int32 {
	lab := make([]int32, p.Len())
	for i := range lab {
		lab[i] = p.Label(i)
	}
	return lab
}

// TestEngineMatchesReference drives the full scanAndRefine engine (whose
// path choice moves from the index scan to the member scan as the
// partition shatters) against the scalar reference on random matrices:
// the selected baselines, the labels after every refinement, the pair
// counts, and the LOWER eval/cutoff counters must all match exactly.
func TestEngineMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		n := 2 + r.Intn(40)
		k := 3 + r.Intn(8)
		m := randomMatrix(r, n, k, 6)
		lower := r.Intn(3) // 0 disables the cutoff; 1–2 exercise it
		refLab := make([]int32, n)
		refNext := int32(1)
		engine := NewPartition(n)
		var sc distScratch
		var evalsRef, cutRef, evalsEng, cutEng int64
		for j := 0; j < k; j++ {
			if engine.Done() {
				break
			}
			numClasses := m.NumClasses(j)
			distRef := refPerClass(refLab, refNext, m.Class[j], numClasses)
			want := selectWithLower(distRef, lower, &evalsRef, &cutRef)
			got := sc.scanAndRefine(engine, m, j, lower, &evalsEng, &cutEng)
			if got != want {
				t.Fatalf("trial %d test %d: engine chose baseline %d, reference %d", trial, j, got, want)
			}
			_, refNext = refRefineByBaseline(refLab, refNext, m.Class[j], want)
			for i := 0; i < n; i++ {
				if engine.Label(i) != refLab[i] {
					t.Fatalf("trial %d test %d fault %d: engine label %d, reference %d",
						trial, j, i, engine.Label(i), refLab[i])
				}
			}
			if got, want := engine.Pairs(), refPairs(refLab, refNext); got != want {
				t.Fatalf("trial %d test %d: engine has %d pairs, reference %d", trial, j, got, want)
			}
		}
		if evalsEng != evalsRef || cutEng != cutRef {
			t.Fatalf("trial %d: engine counters evals=%d cutoffs=%d, reference evals=%d cutoffs=%d",
				trial, evalsEng, cutEng, evalsRef, cutRef)
		}
	}
}

// TestScanPathsAgree forces each scan path in turn on the same starting
// partition — bypassing the path choice — and requires identical baseline
// choices, LOWER counters, labels, and pair counts from both.
func TestScanPathsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 150; trial++ {
		n := 2 + r.Intn(40)
		k := 2 + r.Intn(6)
		m := randomMatrix(r, n, k, 6)
		lower := r.Intn(3)
		base := NewPartition(n)
		for j := 0; j < k-1; j++ {
			if r.Intn(2) == 1 {
				base.RefineByBaseline(m.Class[j], int32(r.Intn(m.NumClasses(j))))
			}
		}
		j := k - 1
		numClasses := m.NumClasses(j)
		ci := m.ClassIndex(j)

		pm := base.Clone()
		var scm distScratch
		var evalsM, cutM int64
		pm.compactLabs()
		distM := scm.perClass(pm, m.Class[j], numClasses)
		bestM := selectWithLower(distM, lower, &evalsM, &cutM)
		pm.RefineByBaseline(m.Class[j], bestM)

		pi := base.Clone()
		var sci distScratch
		var evalsI, cutI int64
		pi.compactLabs()
		bestI := sci.selectIndexed(pi, ci, numClasses, lower, &evalsI, &cutI)
		sci.refineIndexed(pi, ci, m.Class[j], bestI)

		if bestI != bestM {
			t.Fatalf("trial %d: member chose %d, indexed %d", trial, bestM, bestI)
		}
		if evalsI != evalsM || cutI != cutM {
			t.Fatalf("trial %d: counter mismatch: member (%d,%d) indexed (%d,%d)",
				trial, evalsM, cutM, evalsI, cutI)
		}
		for i := 0; i < n; i++ {
			if pi.Label(i) != pm.Label(i) {
				t.Fatalf("trial %d fault %d: member label %d, indexed %d",
					trial, i, pm.Label(i), pi.Label(i))
			}
		}
		if pi.Pairs() != pm.Pairs() {
			t.Fatalf("trial %d: pairs member %d, indexed %d", trial, pm.Pairs(), pi.Pairs())
		}
	}
}

// TestDistMeetMatchesMeet pins Procedure 2's direct meet-dist computation
// to the materialized route: perClass on Meet(a, b) and distMeet on
// (a, b's label snapshot) must produce identical values.
func TestDistMeetMatchesMeet(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(30)
		k := 2 + r.Intn(6)
		m := randomMatrix(r, n, k, 5)
		cut := 1 + r.Intn(k)
		a := NewPartition(n)
		for j := 0; j < cut; j++ {
			a.RefineByBaseline(m.Class[j], int32(r.Intn(m.NumClasses(j))))
		}
		b := NewPartition(n)
		for j := cut; j < k; j++ {
			b.RefineByBaseline(m.Class[j], int32(r.Intn(m.NumClasses(j))))
		}
		met := Meet(a, b)
		jd := r.Intn(k)
		var sc1, sc2 distScratch
		want := sc1.perClass(met, m.Class[jd], m.NumClasses(jd))
		got := sc2.distMeet(a, b.lab, b.next, m.Class[jd], m.NumClasses(jd))
		for z := range want {
			if got[z] != want[z] {
				t.Fatalf("trial %d: distMeet(%d) = %d, perClass(Meet) = %d", trial, z, got[z], want[z])
			}
		}
	}
}

// TestScratchReuseAcrossTests re-runs scanAndRefine with one shared
// scratch across many tests and partitions, checking that the
// all-zero-between-tests counter invariant holds (a stale counter would
// corrupt a later dist value and diverge from the reference).
func TestScratchReuseAcrossTests(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var sc distScratch // shared across every trial on purpose
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(50)
		k := 2 + r.Intn(10)
		m := randomMatrix(r, n, k, 8)
		refLab := make([]int32, n)
		refNext := int32(1)
		engine := NewPartition(n)
		var evalsRef, cutRef, evalsEng, cutEng int64
		for j := 0; j < k && !engine.Done(); j++ {
			numClasses := m.NumClasses(j)
			distRef := refPerClass(refLab, refNext, m.Class[j], numClasses)
			want := selectWithLower(distRef, 1, &evalsRef, &cutRef)
			got := sc.scanAndRefine(engine, m, j, 1, &evalsEng, &cutEng)
			if got != want {
				t.Fatalf("trial %d test %d: engine chose %d, reference %d", trial, j, got, want)
			}
			_, refNext = refRefineByBaseline(refLab, refNext, m.Class[j], want)
		}
		for i := 0; i < n; i++ {
			if engine.Label(i) != refLab[i] {
				t.Fatalf("trial %d fault %d: engine label %d, reference %d", trial, i, engine.Label(i), refLab[i])
			}
		}
	}
}

// FuzzPartitionRefine fuzzes raw class bytes through the maintained
// engine and the scalar reference in lockstep: removed-pair counts,
// labels, and pair totals must match after every refinement round.
func FuzzPartitionRefine(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1}, uint8(1), uint8(2))
	f.Add([]byte{0, 0, 0, 0, 3, 3}, uint8(0), uint8(3))
	f.Add([]byte{5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5}, uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, classRaw []byte, baselineRaw, rounds uint8) {
		if len(classRaw) < 2 {
			return
		}
		if len(classRaw) > 128 {
			classRaw = classRaw[:128]
		}
		n := len(classRaw)
		p := NewPartition(n)
		refLab := make([]int32, n)
		refNext := int32(1)
		class := make([]int32, n)
		for round := 0; round < int(rounds%4)+1; round++ {
			// Derive a fresh class row per round from the fuzz bytes;
			// RefineByBaseline only compares class values, so the ids need
			// not be dense.
			for i, cb := range classRaw {
				class[i] = int32((int(cb) + round*7 + i*int(baselineRaw)) % 6)
			}
			z := int32((int(baselineRaw) + round) % 6)
			removed := p.RefineByBaseline(class, z)
			removedRef, next := refRefineByBaseline(refLab, refNext, class, z)
			refNext = next
			if removed != removedRef {
				t.Fatalf("round %d: engine removed %d pairs, reference %d", round, removed, removedRef)
			}
			for i := 0; i < n; i++ {
				if p.Label(i) != refLab[i] {
					t.Fatalf("round %d fault %d: engine label %d, reference %d", round, i, p.Label(i), refLab[i])
				}
			}
			if got, want := p.Pairs(), refPairs(refLab, refNext); got != want {
				t.Fatalf("round %d: engine has %d pairs, reference %d", round, got, want)
			}
		}
	})
}

// samePartition fails unless a and b agree on every label, the label
// bound, the pair count and the group sizes.
func samePartition(t *testing.T, where string, a, b *Partition) {
	t.Helper()
	if a.NumLabels() != b.NumLabels() || a.Pairs() != b.Pairs() {
		t.Fatalf("%s: %d labels, %d pairs; reference %d labels, %d pairs",
			where, a.NumLabels(), a.Pairs(), b.NumLabels(), b.Pairs())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Label(i) != b.Label(i) {
			t.Fatalf("%s: fault %d label %d, reference %d", where, i, a.Label(i), b.Label(i))
		}
	}
	as, bs := a.GroupSizes(), b.GroupSizes()
	for l := range as {
		if as[l] != bs[l] {
			t.Fatalf("%s: group sizes %v, reference %v", where, as, bs)
		}
	}
}

// TestRefineByClassSkipMatchesRelabel pins RefineByClass's no-split skip
// to the always-relabel path (the same method with canon cleared first)
// over random sequences of class refinements, baseline refinements
// (which leave the labels non-canonical), clones and meets. Class rows
// are often constant per group, so most class refinements split nothing
// and the skip is taken.
func TestRefineByClassSkipMatchesRelabel(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	skips := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(40)
		p, ref := NewPartition(n), NewPartition(n)
		class := make([]int32, n)
		for step := 0; step < 30; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			// A row either splits at random or is a function of the
			// current group, with isolated faults free to differ.
			byGroup := r.Intn(3) > 0
			perLabel := make([]int32, p.NumLabels()+1)
			for l := range perLabel {
				perLabel[l] = int32(r.Intn(4))
			}
			for i := range class {
				if l := p.Label(i); byGroup && l >= 0 {
					class[i] = perLabel[l]
				} else {
					class[i] = int32(r.Intn(4))
				}
			}
			switch op := r.Intn(10); {
			case op < 6:
				canonBefore := p.canon
				ref.canon = false
				got, want := p.RefineByClass(class), ref.RefineByClass(class)
				if got != want {
					t.Fatalf("%s: RefineByClass removed %d, reference %d", where, got, want)
				}
				if canonBefore && got == 0 {
					skips++
				}
			case op < 8:
				z := int32(r.Intn(4))
				if got, want := p.RefineByBaseline(class, z), ref.RefineByBaseline(class, z); got != want {
					t.Fatalf("%s: RefineByBaseline removed %d, reference %d", where, got, want)
				}
			case op < 9:
				p, ref = p.Clone(), ref.Clone()
			default:
				other := NewPartitionFromLabels(class)
				p, ref = Meet(p, other), Meet(ref, other)
			}
			samePartition(t, where, p, ref)
		}
	}
	if skips == 0 {
		t.Fatal("no refinement took the no-split skip; the test exercised nothing")
	}
	t.Logf("%d no-split skips checked", skips)
}

// TestRefineByClassNoSplitAllocs: a refinement that splits no group of
// a canonical partition allocates nothing.
func TestRefineByClassNoSplitAllocs(t *testing.T) {
	const n = 1000
	p := NewPartition(n)
	class := make([]int32, n)
	for i := range class {
		class[i] = int32(i % 7)
	}
	p.RefineByClass(class) // seven groups, canonical labels
	allocs := testing.AllocsPerRun(100, func() {
		if p.RefineByClass(class) != 0 {
			t.Fatal("a repeated row split a group")
		}
	})
	if allocs != 0 {
		t.Fatalf("no-split RefineByClass allocates %v times per call, want 0", allocs)
	}
}
