package core

import (
	"context"
	"math/rand"
	"testing"

	"sddict/internal/resp"
)

// TestSameDiffWithFaultFreeBaselinesIsPassFail checks the structural
// identity the whole construction rests on: a same/different dictionary
// whose baselines are all the fault-free vectors is exactly the pass/fail
// dictionary.
func TestSameDiffWithFaultFreeBaselinesIsPassFail(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		m := randomMatrix(r, 2+r.Intn(30), 1+r.Intn(10), 5)
		sd := &Dictionary{Kind: SameDiff, M: m, Baselines: make([]int32, m.K)}
		pf := NewPassFail(m)
		if sd.Indistinguished() != pf.Indistinguished() {
			t.Fatalf("trial %d: s/d(ff baselines) %d pairs, p/f %d pairs",
				trial, sd.Indistinguished(), pf.Indistinguished())
		}
		for i := 0; i < m.N; i++ {
			for j := 0; j < m.K; j++ {
				if sd.Bit(i, j) != pf.Bit(i, j) {
					t.Fatalf("trial %d: bit (%d,%d) differs", trial, i, j)
				}
			}
		}
	}
}

// TestResolutionOrdering checks, on random matrices, the paper's central
// ordering: the full dictionary is at least as strong as any
// same/different dictionary, which (with fault-free seeding) is at least as
// strong as pass/fail.
func TestResolutionOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		m := randomMatrix(r, 2+r.Intn(40), 1+r.Intn(12), 6)
		full := NewFull(m).Indistinguished()
		pf := NewPassFail(m).Indistinguished()
		opt := DefaultOptions
		opt.Seed = int64(trial)
		opt.Calls1 = 5
		opt.MaxRestarts = 20
		sd, st := mustBuildSameDiff(t, m, opt)
		got := sd.Indistinguished()
		if got != st.IndistFinal {
			t.Fatalf("trial %d: dictionary has %d pairs, stats claim %d", trial, got, st.IndistFinal)
		}
		if got < full {
			t.Fatalf("trial %d: s/d (%d) beats the full dictionary (%d) — impossible", trial, got, full)
		}
		if got > pf {
			t.Fatalf("trial %d: s/d (%d) worse than pass/fail (%d) despite SeedFaultFree", trial, got, pf)
		}
	}
}

// TestProcedure2NeverWorsens checks that Procedure 2 is monotone: starting
// from arbitrary baselines it never increases the indistinguished count.
func TestProcedure2NeverWorsens(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		m := randomMatrix(r, 2+r.Intn(30), 1+r.Intn(8), 5)
		baselines := make([]int32, m.K)
		for j := range baselines {
			baselines[j] = int32(r.Intn(m.NumClasses(j)))
		}
		before := (&Dictionary{Kind: SameDiff, M: m, Baselines: append([]int32(nil), baselines...)}).Indistinguished()
		after, sweeps, done := procedure2(context.Background(), m, baselines, nil)
		if !done {
			t.Fatalf("trial %d: uninterrupted Procedure 2 reported interruption", trial)
		}
		if after > before {
			t.Fatalf("trial %d: Procedure 2 worsened %d -> %d", trial, before, after)
		}
		if sweeps < 1 {
			t.Fatalf("trial %d: no sweeps recorded", trial)
		}
		// The returned count must match re-evaluating the dictionary.
		recount := (&Dictionary{Kind: SameDiff, M: m, Baselines: baselines}).Indistinguished()
		if recount != after {
			t.Fatalf("trial %d: procedure2 reported %d, dictionary has %d", trial, after, recount)
		}
	}
}

// TestMinimizeStoragePreservesResolution checks the baseline-storage
// minimization never loses distinguished pairs while never increasing the
// stored-baseline count.
func TestMinimizeStoragePreservesResolution(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		m := randomMatrix(r, 2+r.Intn(30), 1+r.Intn(8), 5)
		baselines := make([]int32, m.K)
		for j := range baselines {
			baselines[j] = int32(r.Intn(m.NumClasses(j)))
		}
		before := (&Dictionary{Kind: SameDiff, M: m, Baselines: append([]int32(nil), baselines...)}).Indistinguished()
		nonFF := 0
		for _, b := range baselines {
			if b != 0 {
				nonFF++
			}
		}
		saved := minimizeStorage(m, baselines)
		after := (&Dictionary{Kind: SameDiff, M: m, Baselines: baselines}).Indistinguished()
		if after != before {
			t.Fatalf("trial %d: minimization changed resolution %d -> %d", trial, before, after)
		}
		left := 0
		for _, b := range baselines {
			if b != 0 {
				left++
			}
		}
		if left+saved != nonFF {
			t.Fatalf("trial %d: saved %d but %d -> %d stored", trial, saved, nonFF, left)
		}
	}
}

// TestMultiBaselineAtLeastAsStrong checks the two-baseline extension never
// resolves fewer pairs than the single-baseline dictionary built with the
// same options, and its partition agrees with its stats.
func TestMultiBaselineAtLeastAsStrong(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		m := randomMatrix(r, 2+r.Intn(30), 1+r.Intn(8), 6)
		opt := DefaultOptions
		opt.Seed = int64(trial)
		opt.Calls1 = 4
		opt.MaxRestarts = 10
		_, st1 := mustBuildSameDiff(t, m, opt)
		md, st2 := mustBuildSameDiffMulti(t, m, opt)
		if got := md.Indistinguished(); got != st2.IndistFinal {
			t.Fatalf("trial %d: multi dictionary has %d pairs, stats claim %d", trial, got, st2.IndistFinal)
		}
		// The greedy double refinement subsumes the single refinement per
		// test order, so over the same restart schedule it cannot lose to
		// the pure Procedure 1 result (before Procedure 2 and seeding).
		if st2.IndistProc1 > st1.IndistProc1 {
			t.Fatalf("trial %d: multi-baseline Procedure 1 %d worse than single %d",
				trial, st2.IndistProc1, st1.IndistProc1)
		}
	}
}

// TestSelectWithLowerCutoff checks the LOWER early-cutoff semantics: with
// lower=1 the scan stops at the first candidate scoring below the running
// best, possibly missing a later maximum.
func TestSelectWithLowerCutoff(t *testing.T) {
	dist := []int64{3, 2, 5, 9}
	var evals, cutoffs int64
	if got := selectWithLower(dist, 1, &evals, &cutoffs); got != 0 {
		t.Errorf("lower=1 selected %d, want 0 (cut before the peak)", got)
	}
	if evals != 2 {
		t.Errorf("lower=1 evaluated %d candidates, want 2", evals)
	}
	if cutoffs != 1 {
		t.Errorf("lower=1 recorded %d cutoffs, want 1", cutoffs)
	}
	evals = 0
	if got := selectWithLower(dist, 0, &evals, &cutoffs); got != 3 {
		t.Errorf("exhaustive selected %d, want 3", got)
	}
	if evals != 4 {
		t.Errorf("exhaustive evaluated %d, want 4", evals)
	}
	// Equal scores neither reset nor advance the cutoff counter.
	evals = 0
	if got := selectWithLower([]int64{5, 5, 5, 7}, 2, &evals, &cutoffs); got != 3 {
		t.Errorf("equal-score run selected %d, want 3", got)
	}
}

// TestProcedure2MultiNeverWorsens mirrors the single-baseline monotonicity
// check for the two-baseline extension.
func TestProcedure2MultiNeverWorsens(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	for trial := 0; trial < 40; trial++ {
		m := randomMatrix(r, 2+r.Intn(25), 1+r.Intn(8), 5)
		b1 := make([]int32, m.K)
		b2 := make([]int32, m.K)
		for j := range b1 {
			b1[j] = int32(r.Intn(m.NumClasses(j)))
			b2[j] = int32(r.Intn(m.NumClasses(j)))
		}
		before := (&Dictionary{Kind: SameDiff, M: m,
			Baselines:      append([]int32(nil), b1...),
			ExtraBaselines: append([]int32(nil), b2...)}).Indistinguished()
		after, _, _ := procedure2Multi(context.Background(), m, b1, b2)
		if after > before {
			t.Fatalf("trial %d: multi Procedure 2 worsened %d -> %d", trial, before, after)
		}
		recount := (&Dictionary{Kind: SameDiff, M: m, Baselines: b1, ExtraBaselines: b2}).Indistinguished()
		if recount != after {
			t.Fatalf("trial %d: reported %d, dictionary has %d", trial, after, recount)
		}
	}
}

// mustBuildSameDiff builds the one-baseline same/different dictionary.
func mustBuildSameDiff(t *testing.T, m *resp.Matrix, opt Options) (*Dictionary, BuildStats) {
	t.Helper()
	d, st, err := BuildSameDiffCtx(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d, st
}

// mustBuildSameDiffMulti builds the two-baseline same/different
// dictionary.
func mustBuildSameDiffMulti(t *testing.T, m *resp.Matrix, opt Options) (*Dictionary, BuildStats) {
	t.Helper()
	d, st, err := BuildSameDiffMultiCtx(context.Background(), m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d, st
}
