package core

import (
	"context"

	"sddict/internal/resp"
)

// BuildSameDiffMultiCtx implements the extension the paper mentions but
// does not evaluate ("one can select more than one baseline vector for a
// test vector"): two baselines per test, giving two same/different bits
// per fault/test. Selection is greedy per test — the best candidate is
// chosen and applied, then the best candidate against the refined
// partition. The dictionary costs 2·k·n bits plus storage for the
// non-fault-free baselines.
//
// The restart phase runs on the same driver as BuildSameDiffCtx with two
// baseline slots per test, so it shares the restart schedule (both
// constructions explore the same test orders), cancellation at
// restart/sweep/test granularity with a best-so-far result, the
// index-order fold that makes the outcome identical at every
// Options.Workers setting, the observability signals, the CALLS_1 stop
// rule and the salvage of an interrupted restart. Checkpoints record a
// single baseline slot, so checkpoint/resume (Options.Resume,
// Options.CheckpointEvery, Options.OnCheckpoint) applies only to the
// single-baseline construction and is ignored here.
func BuildSameDiffMultiCtx(ctx context.Context, m *resp.Matrix, opt Options) (*Dictionary, BuildStats, error) {
	st, maxRestarts, err := startBuild(m, opt)
	if err != nil {
		return nil, st, err
	}

	var rs restartState
	o := opt
	o.CheckpointEvery = 0 // no emit: a two-slot selection has no checkpoint form
	partial, interrupted := runRestartsCtx(ctx, m, o, 2, &rs, maxRestarts, st.IndistFull, nil)
	st.Interrupted = interrupted
	st.Restarts = rs.restarts
	st.CandidateEvals = rs.evals
	best1, best2, bestIndist := rs.bestBase, rs.bestExtra, rs.bestIndist
	if interrupted {
		best1, best2, bestIndist = rs.salvage(m, partial)
	}
	st.IndistProc1 = bestIndist
	st.IndistProc2 = bestIndist
	if opt.RunProcedure2 && !st.Interrupted && bestIndist > st.IndistFull {
		indist, sweeps, done := procedure2Multi(ctx, m, best1, best2)
		st.Proc2Sweeps = sweeps
		st.IndistProc2 = indist
		st.Proc2Improved = indist < st.IndistProc1
		bestIndist = indist
		st.Interrupted = st.Interrupted || !done
	}
	st.IndistFinal = bestIndist
	st.ReachedFullFloor = bestIndist == st.IndistFull
	for j := range best1 {
		if best1[j] != 0 {
			st.StoredBaselines++
		}
		if best2[j] != 0 {
			st.StoredBaselines++
		}
	}
	return &Dictionary{Kind: SameDiff, M: m, Baselines: best1, ExtraBaselines: best2}, st, nil
}

// procedure2Multi extends Procedure 2 to the two-baseline dictionary: each
// of a test's two baseline slots is locally optimized in turn while the
// other slot (and all other tests) stay fixed, sweeping until no
// replacement improves the distinguished-pair count. The same
// prefix/suffix partition scheme as procedure2 applies, with each test
// contributing two refinements. done is false when ctx cut the sweeps
// short; the in-place baselines remain valid and no worse than the input.
func procedure2Multi(ctx context.Context, m *resp.Matrix, b1, b2 []int32) (int64, int, bool) {
	var scratch distScratch
	var ms meetScratch
	restBase := &Partition{}
	suf := newSuffixLabels(m.N, m.K)
	sweeps := 0
	var finalIndist int64
	for {
		sweeps++
		improved := false

		suf.buildMulti(m, b1, b2)
		prefix := NewPartition(m.N)
		for j := 0; j < m.K; j++ {
			if ctx.Err() != nil {
				d := &Dictionary{Kind: SameDiff, M: m, Baselines: b1, ExtraBaselines: b2}
				return d.Indistinguished(), sweeps, false
			}
			// Optimize slot 1 with slot 2 fixed.
			meetInto(restBase, prefix, suf.lab(j+1), suf.next[j+1], &ms)
			rest1 := restBase.Clone()
			rest1.RefineByBaseline(m.Class[j], b2[j])
			dist := scratch.perClass(rest1, m.Class[j], m.NumClasses(j))
			best := b1[j]
			for z := int32(0); z < int32(len(dist)); z++ {
				if dist[z] > dist[best] {
					best = z
				}
			}
			if best != b1[j] {
				b1[j] = best
				improved = true
			}
			// Optimize slot 2 with the (possibly new) slot 1 fixed.
			rest2 := restBase
			rest2.RefineByBaseline(m.Class[j], b1[j])
			dist = scratch.perClass(rest2, m.Class[j], m.NumClasses(j))
			best = b2[j]
			for z := int32(0); z < int32(len(dist)); z++ {
				if dist[z] > dist[best] {
					best = z
				}
			}
			if best != b2[j] {
				b2[j] = best
				improved = true
			}
			prefix.RefineByBaseline(m.Class[j], b1[j])
			prefix.RefineByBaseline(m.Class[j], b2[j])
		}
		finalIndist = prefix.Pairs()
		if !improved {
			return finalIndist, sweeps, true
		}
		if ctx.Err() != nil {
			return finalIndist, sweeps, false
		}
	}
}
