package core

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sddict/internal/obs"
	"sddict/internal/resp"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Options)
		wantErr string // substring; "" means valid
	}{
		{"defaults", func(o *Options) {}, ""},
		{"zero value", func(o *Options) { *o = Options{} }, ""},
		{"negative lower", func(o *Options) { o.Lower = -1 }, "Lower"},
		{"negative calls1", func(o *Options) { o.Calls1 = -3 }, "Calls1"},
		{"negative restarts", func(o *Options) { o.MaxRestarts = -1 }, "MaxRestarts"},
		{"negative checkpoint interval", func(o *Options) { o.CheckpointEvery = -2 }, "CheckpointEvery"},
		{"checkpoints without sink", func(o *Options) {
			o.CheckpointEvery = 5
			o.OnCheckpoint = nil
		}, "OnCheckpoint"},
		{"checkpoints with sink", func(o *Options) {
			o.CheckpointEvery = 5
			o.OnCheckpoint = func(Checkpoint) {}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions
			tc.mutate(&opt)
			err := opt.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted invalid options")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateMatrix(t *testing.T) {
	good := func() *resp.Matrix {
		return randomMatrix(rand.New(rand.NewSource(5)), 12, 6, 4)
	}
	cases := []struct {
		name   string
		mutate func(*resp.Matrix) *resp.Matrix
	}{
		{"nil matrix", func(m *resp.Matrix) *resp.Matrix { return nil }},
		{"no faults", func(m *resp.Matrix) *resp.Matrix { m.N = 0; return m }},
		{"no tests", func(m *resp.Matrix) *resp.Matrix { m.K = 0; return m }},
		{"class rows missing", func(m *resp.Matrix) *resp.Matrix { m.Class = m.Class[:len(m.Class)-1]; return m }},
		{"short class row", func(m *resp.Matrix) *resp.Matrix { m.Class[2] = m.Class[2][:m.N-1]; return m }},
		{"class out of range", func(m *resp.Matrix) *resp.Matrix {
			m.Class[1][0] = int32(m.NumClasses(1))
			return m
		}},
		{"negative class", func(m *resp.Matrix) *resp.Matrix { m.Class[0][0] = -1; return m }},
	}
	if err := ValidateMatrix(good()); err != nil {
		t.Fatalf("ValidateMatrix rejected a valid matrix: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateMatrix(tc.mutate(good())); err == nil {
				t.Fatalf("ValidateMatrix accepted a broken matrix")
			}
		})
	}
}

func TestBuildSameDiffCtxInvalidInputs(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(5)), 10, 5, 3)
	bad := DefaultOptions
	bad.Lower = -1
	if _, _, err := BuildSameDiffCtx(context.Background(), m, bad); err == nil {
		t.Fatalf("BuildSameDiffCtx accepted invalid options")
	}
	if _, _, err := BuildSameDiffCtx(context.Background(), nil, DefaultOptions); err == nil {
		t.Fatalf("BuildSameDiffCtx accepted a nil matrix")
	}
}

// TestBuildSameDiffCtxCancelMidRestart cancels the search from within a
// checkpoint callback and verifies the degraded result: a valid dictionary,
// Interrupted set, and (thanks to fault-free seeding) a resolution never
// worse than the pass/fail dictionary.
func TestBuildSameDiffCtxCancelMidRestart(t *testing.T) {
	// Few tests and many classes: the one-baseline dictionary cannot reach
	// the full-dictionary floor, so the restart loop keeps searching long
	// enough for the cancellation to land mid-search.
	r := rand.New(rand.NewSource(11))
	m := randomMatrix(r, 80, 5, 5)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := DefaultOptions
	opt.Seed = 3
	opt.Calls1 = 1000
	opt.MaxRestarts = 1000
	opt.CheckpointEvery = 1
	opt.OnCheckpoint = func(cp Checkpoint) {
		if cp.Restarts >= 3 {
			cancel()
		}
	}

	d, st, err := BuildSameDiffCtx(ctx, m, opt)
	if err != nil {
		t.Fatalf("BuildSameDiffCtx: %v", err)
	}
	if d == nil {
		t.Fatalf("interrupted build returned no dictionary")
	}
	if !st.Interrupted {
		t.Fatalf("Interrupted not set after cancellation (restarts=%d)", st.Restarts)
	}
	if got := d.Indistinguished(); got != st.IndistFinal {
		t.Fatalf("dictionary indist %d != reported IndistFinal %d", got, st.IndistFinal)
	}
	if pf := NewPassFail(m).Indistinguished(); st.IndistFinal > pf {
		t.Fatalf("interrupted dictionary (%d indist) worse than pass/fail (%d)", st.IndistFinal, pf)
	}
	if len(d.Baselines) != m.K {
		t.Fatalf("dictionary has %d baselines, want %d", len(d.Baselines), m.K)
	}
}

// errAfterCtx is a context whose Err turns to context.Canceled on its
// n-th call. The search polls Err once per test, so with one worker the
// cancellation lands at an exact, reproducible point inside a restart.
type errAfterCtx struct {
	context.Context
	left atomic.Int64
}

func newErrAfterCtx(n int64) *errAfterCtx {
	c := &errAfterCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *errAfterCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBuildSameDiffMultiCtxCancelMidRestart cancels the two-baseline build
// at each of the first 40 Err polls. Each interrupted build must
// report only completed restarts (one restart_end event each) and return
// the better of the best completed restart and the cut-short one, scored
// by the returned dictionary's own resolution.
func TestBuildSameDiffMultiCtxCancelMidRestart(t *testing.T) {
	// Three tests and many classes: the two-baseline dictionary cannot
	// reach the full-dictionary floor, so the first 40 polls span ten
	// restarts, and at one cut the interrupted restart's partial selection
	// beats the only completed restart.
	r := rand.New(rand.NewSource(7))
	m := randomMatrix(r, 100, 3, 5)
	opt := DefaultOptions
	opt.Seed = 3
	opt.Calls1 = 1000
	opt.MaxRestarts = 1000
	opt.Workers = 1

	partialWon := false
	for cut := int64(0); cut < 40; cut++ {
		var trace bytes.Buffer
		o := opt
		o.Obs = &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTracer(&trace, nil)}
		d, st, err := BuildSameDiffMultiCtx(newErrAfterCtx(cut), m, o)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !st.Interrupted {
			t.Fatalf("cut %d: Interrupted not set (restarts=%d)", cut, st.Restarts)
		}
		if got := d.Indistinguished(); got != st.IndistFinal {
			t.Fatalf("cut %d: dictionary indist %d != reported IndistFinal %d", cut, got, st.IndistFinal)
		}
		events, err := obs.ReadEvents(&trace)
		if err != nil {
			t.Fatalf("cut %d: trace does not parse: %v", cut, err)
		}
		ends := 0
		var completedBest int64 = -1
		for _, ev := range events {
			if ev.Type == "restart_end" {
				ends++
				completedBest = int64(ev.Fields["best"].(float64))
			}
		}
		if st.Restarts != ends {
			t.Fatalf("cut %d: BuildStats.Restarts = %d, trace has %d restart_end events", cut, st.Restarts, ends)
		}
		if completedBest >= 0 && st.IndistFinal > completedBest {
			t.Fatalf("cut %d: IndistFinal %d worse than the best completed restart (%d)", cut, st.IndistFinal, completedBest)
		}
		if completedBest >= 0 && st.IndistFinal < completedBest {
			partialWon = true
		}
	}
	if !partialWon {
		t.Fatalf("no cut point salvaged a partial restart better than the completed best")
	}
}

// TestBuildSameDiffCtxCancelledBeforeStart: even a context dead on arrival
// must yield a valid (if unoptimized) dictionary, not a nil or an error.
func TestBuildSameDiffCtxCancelledBeforeStart(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(4)), 30, 10, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d, st, err := BuildSameDiffCtx(ctx, m, DefaultOptions)
	if err != nil {
		t.Fatalf("BuildSameDiffCtx: %v", err)
	}
	if d == nil || !st.Interrupted {
		t.Fatalf("want valid dictionary with Interrupted, got d=%v interrupted=%v", d != nil, st.Interrupted)
	}
	if pf := NewPassFail(m).Indistinguished(); st.IndistFinal > pf {
		t.Fatalf("dead-on-arrival build (%d indist) worse than pass/fail (%d)", st.IndistFinal, pf)
	}
}

// TestCheckpointResumeDeterminism kills a build after a few restarts,
// resumes from its checkpoint, and verifies the resumed run converges to
// exactly the result of the never-interrupted run with the same seed.
func TestCheckpointResumeDeterminism(t *testing.T) {
	// This matrix/seed pair takes ~15 restarts uninterrupted (the s/d
	// search cannot reach the full floor), leaving room to cancel at 3.
	r := rand.New(rand.NewSource(21))
	m := randomMatrix(r, 60, 6, 6)

	opt := DefaultOptions
	opt.Seed = 9
	opt.Calls1 = 8
	opt.MaxRestarts = 30

	// Reference: one uninterrupted run.
	dRef, stRef := mustBuildSameDiff(t, m, opt)

	// Interrupted run: cancel once three restarts have completed, keeping
	// the last checkpoint emitted.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *Checkpoint
	optA := opt
	optA.CheckpointEvery = 1
	optA.OnCheckpoint = func(cp Checkpoint) {
		c := cp
		last = &c
		if cp.Restarts >= 3 {
			cancel()
		}
	}
	_, stA, err := BuildSameDiffCtx(ctx, m, optA)
	if err != nil {
		t.Fatalf("interrupted build: %v", err)
	}
	if !stA.Interrupted || last == nil {
		t.Fatalf("setup failed: interrupted=%v checkpoint=%v", stA.Interrupted, last != nil)
	}
	if stA.Restarts >= stRef.Restarts {
		t.Fatalf("interrupted run already did %d restarts, reference only %d — cancel earlier",
			stA.Restarts, stRef.Restarts)
	}

	// Resume and run to completion.
	optB := opt
	optB.Resume = last
	dRes, stRes, err := BuildSameDiffCtx(context.Background(), m, optB)
	if err != nil {
		t.Fatalf("resumed build: %v", err)
	}
	if !stRes.Resumed {
		t.Fatalf("Resumed not set")
	}
	if stRes.Interrupted {
		t.Fatalf("resumed build reported Interrupted")
	}
	if stRes.IndistFinal != stRef.IndistFinal {
		t.Fatalf("resumed IndistFinal = %d, uninterrupted = %d", stRes.IndistFinal, stRef.IndistFinal)
	}
	if stRes.Restarts != stRef.Restarts {
		t.Fatalf("resumed total restarts = %d, uninterrupted = %d", stRes.Restarts, stRef.Restarts)
	}
	if stRes.IndistProc1 != stRef.IndistProc1 {
		t.Fatalf("resumed IndistProc1 = %d, uninterrupted = %d", stRes.IndistProc1, stRef.IndistProc1)
	}
	for j := range dRef.Baselines {
		if dRef.Baselines[j] != dRes.Baselines[j] {
			t.Fatalf("baseline %d differs after resume: %d vs %d", j, dRef.Baselines[j], dRes.Baselines[j])
		}
	}
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(2)), 20, 8, 4)
	opt := DefaultOptions
	opt.Seed = 5
	cp := Checkpoint{
		Version:       checkpointVersion,
		Seed:          5,
		MatrixN:       m.N,
		MatrixK:       m.K,
		Fingerprint:   MatrixFingerprint(m),
		Restarts:      4,
		NoImprove:     1,
		OrderSeeds:    OrderSeedSchedule(5, 4),
		BestBaselines: make([]int32, m.K),
		BestIndist:    17,
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := cp.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if err := got.ValidateFor(m, opt); err != nil {
		t.Fatalf("round-tripped checkpoint invalid: %v", err)
	}
	if got.Restarts != cp.Restarts || got.BestIndist != cp.BestIndist || got.Fingerprint != cp.Fingerprint {
		t.Fatalf("round trip changed fields: %+v vs %+v", got, cp)
	}

	// A checkpoint from a different matrix must be rejected.
	other := randomMatrix(rand.New(rand.NewSource(99)), 20, 8, 4)
	if other.N == m.N && other.K == m.K {
		if err := got.ValidateFor(other, opt); err == nil {
			t.Fatalf("checkpoint accepted for a different matrix")
		}
	}
	// Wrong seed: resuming would not reproduce the shuffle sequence.
	optWrong := opt
	optWrong.Seed = 6
	if err := got.ValidateFor(m, optWrong); err == nil {
		t.Fatalf("checkpoint accepted under a different seed")
	}
}

func TestLoadCheckpointErrors(t *testing.T) {
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatalf("LoadCheckpoint accepted a missing file")
	}
	if _, err := DecodeCheckpoint(strings.NewReader("not json")); err == nil {
		t.Fatalf("DecodeCheckpoint accepted garbage")
	}
}
