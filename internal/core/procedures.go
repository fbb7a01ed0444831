package core

import (
	"context"

	"sddict/internal/obs"
	"sddict/internal/resp"
)

// Options controls same/different dictionary construction. The zero value
// is usable; DefaultOptions matches the paper's experimental setup.
type Options struct {
	// Lower is the paper's LOWER constant: candidate scanning for a test
	// stops after this many consecutive candidates scoring below the best
	// so far. 0 scans every candidate (exhaustive).
	Lower int
	// Calls1 is the paper's CALLS_1 constant: Procedure 1 is restarted with
	// random test orders until this many consecutive restarts bring no
	// improvement.
	Calls1 int
	// MaxRestarts caps the total number of Procedure 1 runs.
	MaxRestarts int
	// Seed drives the random test orders: restart i shuffles with
	// OrderSeed(Seed, i), so the schedule is a pure function of Seed.
	Seed int64
	// Workers bounds how many Procedure 1 restarts are evaluated
	// concurrently. 0 selects one worker per available CPU, 1 forces the
	// sequential path. The result is byte-identical at every setting —
	// parallelism trades speculative work for wall-clock time only
	// (DESIGN.md §9).
	Workers int
	// RunProcedure2 applies Procedure 2 to the best Procedure 1 result.
	RunProcedure2 bool
	// SeedFaultFree additionally runs Procedure 2 from all-fault-free
	// baselines (the pass/fail dictionary) and keeps the better outcome.
	// This guarantees the result is never worse than pass/fail — including
	// when the build is interrupted.
	SeedFaultFree bool
	// MinimizeStorage replaces selected baselines by the fault-free vector
	// whenever that loses no resolution, shrinking baseline storage.
	MinimizeStorage bool

	// Resume continues an earlier run from a checkpoint taken with the same
	// seed over the same matrix; construction proceeds exactly as the
	// uninterrupted run would have, at any worker count.
	Resume *Checkpoint
	// CheckpointEvery invokes OnCheckpoint after every CheckpointEvery
	// completed Procedure 1 restarts (0 disables periodic checkpoints). A
	// final checkpoint is also emitted when the restart phase is
	// interrupted, so cancellation never loses completed work.
	CheckpointEvery int
	// OnCheckpoint receives construction snapshots; typically it saves them
	// with Checkpoint.Save. It is called synchronously from BuildSameDiffCtx.
	OnCheckpoint func(Checkpoint)

	// Obs receives measurement-only observability signals during
	// construction: metrics at the ordered restart fold points, build
	// events on the trace, progress ticks. nil disables observation.
	// Observation never feeds back into the search — the dictionary and
	// every BuildStats counter are byte-identical with Obs set or nil,
	// at every worker count (DESIGN.md §10; pinned by the root
	// determinism tests).
	Obs *obs.Observer
}

// DefaultOptions reproduces the paper's setup (LOWER = 10, CALLS_1 = 100,
// Procedure 2 enabled) plus the non-regression seeding and storage
// minimization described in DESIGN.md.
var DefaultOptions = Options{
	Lower:           10,
	Calls1:          100,
	MaxRestarts:     2000,
	RunProcedure2:   true,
	SeedFaultFree:   true,
	MinimizeStorage: true,
}

// BuildStats reports how a same/different dictionary was obtained.
type BuildStats struct {
	Restarts         int   // Procedure 1 runs performed (cumulative across resumes)
	CandidateEvals   int64 // dist(z) evaluations across all completed runs
	IndistFull       int64 // full-dictionary floor
	IndistProc1      int64 // best over Procedure 1 restarts
	IndistProc2      int64 // after Procedure 2 on the Procedure 1 result
	IndistSeeded     int64 // Procedure 2 from fault-free baselines (-1 if not run)
	IndistFinal      int64 // of the returned dictionary
	Proc2Improved    bool
	Proc2Sweeps      int
	UsedSeeded       bool // the seeded run won
	StoredBaselines  int  // baselines differing from fault-free after minimization
	MinimizedSaved   int  // baselines reverted to fault-free by minimization
	ReachedFullFloor bool // dictionary distinguishes everything the full one does
	// Interrupted is set when the build stopped early on context
	// cancellation or deadline; the returned dictionary is the best found
	// so far (and, with SeedFaultFree, never worse than pass/fail).
	Interrupted bool
	// Resumed is set when the build continued from Options.Resume.
	Resumed bool
}

// startBuild validates the inputs of a same/different build and returns
// its initial stats, with the full-dictionary floor, and its restart cap.
func startBuild(m *resp.Matrix, opt Options) (BuildStats, int, error) {
	st := BuildStats{IndistSeeded: -1}
	if err := opt.Validate(); err != nil {
		return st, 0, err
	}
	if err := ValidateMatrix(m); err != nil {
		return st, 0, err
	}
	st.IndistFull = NewFull(m).Indistinguished()
	return st, max(opt.MaxRestarts, 1), nil
}

// BuildSameDiffCtx selects baseline vectors for a same/different
// dictionary over m using Procedure 1 with random-order restarts followed
// by Procedure 2, per the paper, and returns the dictionary with
// construction statistics. Cancellation and deadline are honoured at
// restart, sweep and per-test granularity. An interrupted build is not an
// error — it returns the best valid dictionary found so far with
// BuildStats.Interrupted set (never worse than pass/fail when
// Options.SeedFaultFree is set). Errors are reserved for invalid options,
// an invalid matrix, or an incompatible resume checkpoint.
//
// The restart phase fans out across Options.Workers goroutines through
// internal/par; because every restart is a pure function of (m, Seed,
// index) and results are folded in index order, the returned dictionary
// and every BuildStats counter are identical at every worker count.
func BuildSameDiffCtx(ctx context.Context, m *resp.Matrix, opt Options) (*Dictionary, BuildStats, error) {
	st, maxRestarts, err := startBuild(m, opt)
	if err != nil {
		return nil, st, err
	}

	ob := opt.Obs
	if ob.Tracing() {
		ob.Emit("build_start", map[string]any{
			"schema": obs.TraceSchemaVersion,
			"faults": m.N, "tests": m.K, "seed": opt.Seed,
			"lower": opt.Lower, "calls1": opt.Calls1,
			"max_restarts": maxRestarts, "workers": opt.Workers,
			"indist_full": st.IndistFull,
		})
	}

	// Procedure 1 with restarts. Restart 0 uses the natural test order;
	// restart i > 0 shuffles with OrderSeed(opt.Seed, i). The schedule is a
	// pure function of the seed, which is what makes checkpoints resumable
	// (and restarts parallelizable): a resume — under any worker count —
	// picks up after the completed restarts without re-running them.
	var rs restartState
	if cp := opt.Resume; cp != nil {
		if err := cp.ValidateFor(m, opt); err != nil {
			return nil, st, err
		}
		rs.bestBase = append([]int32(nil), cp.BestBaselines...)
		rs.bestIndist = cp.BestIndist
		rs.restarts = cp.Restarts
		rs.noImprove = cp.NoImprove
		rs.evals = cp.CandidateEvals
		st.Resumed = true
		if ob.Tracing() {
			ob.Emit("checkpoint_load", map[string]any{
				"restarts": rs.restarts, "best_indist": rs.bestIndist,
			})
		}
	}

	// emit takes a construction snapshot: always observed (counter plus
	// trace event, with "persisted" recording whether a sink exists),
	// handed to OnCheckpoint only when the caller installed one.
	emit := func() {
		ob.M().Inc(obs.CheckpointSaves)
		if ob.Tracing() {
			ob.Emit("checkpoint_save", map[string]any{
				"restarts": rs.restarts, "best_indist": rs.bestIndist,
				"persisted": opt.OnCheckpoint != nil,
			})
		}
		if opt.OnCheckpoint == nil {
			return
		}
		opt.OnCheckpoint(Checkpoint{
			Version:        checkpointVersion,
			Seed:           opt.Seed,
			MatrixN:        m.N,
			MatrixK:        m.K,
			Fingerprint:    MatrixFingerprint(m),
			Restarts:       rs.restarts,
			NoImprove:      rs.noImprove,
			OrderSeeds:     OrderSeedSchedule(opt.Seed, rs.restarts),
			BestBaselines:  append([]int32(nil), rs.bestBase...),
			BestIndist:     rs.bestIndist,
			CandidateEvals: rs.evals,
		})
	}

	partial, interrupted := runRestartsCtx(ctx, m, opt, 1, &rs, maxRestarts, st.IndistFull, emit)
	st.Interrupted = interrupted
	st.Restarts = rs.restarts
	st.CandidateEvals = rs.evals
	bestBase, bestIndist := rs.bestBase, rs.bestIndist
	if st.Interrupted {
		// Salvage: keep the best of the completed restarts, the interrupted
		// partial run, and (with SeedFaultFree) the plain pass/fail
		// baselines — the cheap tail of the SeedFaultFree guarantee.
		bestBase, _, bestIndist = rs.salvage(m, partial)
		if opt.SeedFaultFree {
			if zi := NewPassFail(m).Indistinguished(); zi < bestIndist {
				bestBase, bestIndist = make([]int32, m.K), zi
				st.UsedSeeded = true
			}
		}
		st.IndistProc1 = bestIndist
		st.IndistProc2 = bestIndist
		st.IndistFinal = bestIndist
		st.ReachedFullFloor = bestIndist == st.IndistFull
		d := &Dictionary{Kind: SameDiff, M: m, Baselines: bestBase}
		for _, b := range bestBase {
			if b != 0 {
				st.StoredBaselines++
			}
		}
		if ob.Tracing() {
			ob.Emit("build_end", map[string]any{
				"indist": bestIndist, "restarts": rs.restarts, "interrupted": true,
			})
		}
		if rs.restarts > 0 {
			// Final snapshot of the completed work, so nothing is lost. Last
			// deliberately: an interrupted trace ends on checkpoint_save, the
			// invariant the root interruption test pins.
			emit()
		}
		return d, st, nil
	}
	st.IndistProc1 = bestIndist
	st.IndistProc2 = bestIndist

	// Procedure 2 on the Procedure 1 winner. Replacements are individually
	// monotone, so an interrupted sweep still leaves valid baselines no
	// worse than its input.
	if opt.RunProcedure2 && bestIndist > st.IndistFull {
		indist, sweeps, done := procedure2(ctx, m, bestBase, ob)
		st.Proc2Sweeps = sweeps
		st.IndistProc2 = indist
		st.Proc2Improved = indist < st.IndistProc1
		bestIndist = indist
		st.Interrupted = st.Interrupted || !done
	}

	// Non-regression seeding: Procedure 2 from the pass/fail baselines.
	// Even when cut short, the seeded baselines are never worse than
	// pass/fail, so the guarantee survives interruption.
	if opt.SeedFaultFree {
		seeded := make([]int32, m.K)
		indist, _, done := procedure2(ctx, m, seeded, ob)
		st.IndistSeeded = indist
		st.Interrupted = st.Interrupted || !done
		if indist < bestIndist {
			bestBase, bestIndist = seeded, indist
			st.UsedSeeded = true
		}
	}
	st.IndistFinal = bestIndist
	st.ReachedFullFloor = bestIndist == st.IndistFull

	d := &Dictionary{Kind: SameDiff, M: m, Baselines: bestBase}
	if opt.MinimizeStorage && ctx.Err() == nil {
		st.MinimizedSaved = minimizeStorage(m, bestBase)
	}
	for _, b := range bestBase {
		if b != 0 {
			st.StoredBaselines++
		}
	}
	ob.M().Set(obs.IndistPairs, bestIndist)
	if ob.Tracing() {
		ob.Emit("build_end", map[string]any{
			"indist": bestIndist, "restarts": rs.restarts,
			"interrupted": st.Interrupted,
		})
	}
	return d, st, nil
}
