package core

import (
	"context"
	"math/rand"

	"sddict/internal/obs"
	"sddict/internal/par"
	"sddict/internal/resp"
)

// The restart schedule.
//
// Every Procedure 1 restart is a pure function of (matrix, order seed):
// restart 0 uses the natural test order, restart i > 0 shuffles with a
// generator seeded by OrderSeed(Options.Seed, i), a SplitMix64 substream
// of the root seed. Because no RNG state is shared between restarts, any
// subset of restarts can run concurrently (or be replayed after a
// resume) and still produce exactly the bits the one-worker loop would.
// The restart *driver* then folds results in restart-index order, so the
// winner — best (indistinguished count, restart index) — is independent
// of worker count and goroutine scheduling (DESIGN.md §9).

// OrderSeed returns the seed of restart i's test-order shuffle, a pure
// function of the root seed and the restart index. Restart 0 runs the
// natural order; its schedule entry exists only so checkpoints can
// record a uniform per-restart seed list.
func OrderSeed(seed int64, i int) int64 { return par.Seed(seed, i) }

// OrderSeedSchedule returns the order seeds of restarts [0, n), the
// schedule a checkpoint records so a resume can verify it is replaying
// the same restart sequence (see Checkpoint.OrderSeeds).
func OrderSeedSchedule(seed int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = OrderSeed(seed, i)
	}
	return s
}

// restartScratch is the state one worker reuses from restart to restart:
// the partition, the dist-scan buffers, the order buffer and the order
// generator. Restarts stay pure functions of (m, seed, i): each one
// resets what it reads.
type restartScratch struct {
	p     Partition
	dist  distScratch
	order []int
	src   orderSource
	rng   *rand.Rand
}

func newRestartScratch() *restartScratch {
	sc := &restartScratch{}
	sc.rng = rand.New(&sc.src)
	return sc
}

// restartOrder materializes the test order of restart i over k tests
// into sc's order buffer: the natural order for restart 0, otherwise the
// shuffle rand.New(rand.NewSource(OrderSeed(seed, i))) draws.
func (sc *restartScratch) restartOrder(seed int64, i, k int) []int {
	if cap(sc.order) < k {
		sc.order = make([]int, k)
	}
	order := sc.order[:k]
	for j := range order {
		order[j] = j
	}
	if i > 0 {
		sc.src.Seed(OrderSeed(seed, i))
		sc.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	}
	return order
}

// restartResult is the outcome of one Procedure 1 restart.
type restartResult struct {
	base    []int32
	extra   []int32 // second baseline slot per test; nil for a one-slot build
	indist  int64
	evals   int64
	cutoffs int64 // LOWER early-terminations, tallied for obs only
	// done is false when ctx cut the run short; base then holds the
	// partial (still valid) selection and indist the pairs refined so far.
	done bool
}

// runRestart executes restart i of the schedule: a pure function of
// (m, seed, i, lower, slots). sc is the calling worker's scratch, so
// concurrent restarts share no state. The restart_start trace event is
// the one observation emitted from a worker rather than a fold point: it
// records real (speculative) execution order, so its position in the
// trace may vary across worker counts even though every metric and every
// other event is fold-ordered.
func runRestart(ctx context.Context, m *resp.Matrix, seed int64, i, lower, slots int, ob *obs.Observer, sc *restartScratch) restartResult {
	if ob.Tracing() {
		ob.Emit("restart_start", map[string]any{"restart": i, "order_seed": OrderSeed(seed, i)})
	}
	return procedure1(ctx, m, sc.restartOrder(seed, i, m.K), lower, slots, &sc.p, &sc.dist)
}

// restartState is the sequential fold over restart results — exactly the
// accounting the pre-parallel one-worker loop performed, factored out so
// the speculative driver applies it in restart-index order.
type restartState struct {
	bestBase   []int32
	bestExtra  []int32 // nil for a one-slot build
	bestIndist int64
	restarts   int // completed restarts folded so far
	noImprove  int // consecutive non-improving restarts (CALLS_1 counter)
	evals      int64
}

// fold merges the completed restart i into the state.
func (s *restartState) fold(i int, res restartResult) {
	s.evals += res.evals
	if i == 0 {
		s.bestBase, s.bestExtra, s.bestIndist = res.base, res.extra, res.indist
		s.restarts = 1
		return
	}
	s.restarts++
	if res.indist < s.bestIndist {
		s.bestBase, s.bestExtra, s.bestIndist = res.base, res.extra, res.indist
		s.noImprove = 0
	} else {
		s.noImprove++
	}
}

// wantMore reports whether the sequential loop would run another restart
// from this state: the CALLS_1 patience is not exhausted, the restart cap
// not reached, and the full-dictionary floor not yet attained.
func (s *restartState) wantMore(opt Options, maxRestarts int, indistFull int64) bool {
	return s.noImprove < opt.Calls1 && s.restarts < maxRestarts && s.bestIndist > indistFull
}

// salvage returns the result of an interrupted restart phase: the better
// of the best completed restart and the partial selection of the restart
// cancellation cut short. The partial selection is a valid dictionary
// (unreached tests keep the fault-free baseline), so it is scored by its
// own indistinguished count rather than by the pairs its refinement
// reached before the cut.
func (s *restartState) salvage(m *resp.Matrix, partial restartResult) (base, extra []int32, indist int64) {
	base, extra, indist = s.bestBase, s.bestExtra, s.bestIndist
	if partial.base == nil {
		return base, extra, indist
	}
	d := &Dictionary{Kind: SameDiff, M: m, Baselines: partial.base, ExtraBaselines: partial.extra}
	if pi := d.Indistinguished(); base == nil || pi < indist {
		return partial.base, partial.extra, pi
	}
	return base, extra, indist
}

// runRestartsCtx drives the Procedure 1 restart phase with slots (1 or 2)
// baselines per test: restarts are fanned out across the pool
// speculatively, folded in index order, and stopped exactly where the
// one-worker loop would stop, so the best selection, bestIndist and all
// counters are byte-identical at every worker count. On cancellation the
// fold keeps the completed in-order prefix (the only state checkpoints
// ever record) and returns the first incomplete restart as partial, for
// salvage. emit is called every opt.CheckpointEvery completed restarts;
// it may be nil when CheckpointEvery is 0.
func runRestartsCtx(ctx context.Context, m *resp.Matrix, opt Options, slots int, st *restartState, maxRestarts int, indistFull int64, emit func()) (partial restartResult, interrupted bool) {
	start := st.restarts // next restart index to run
	if start > 0 && !st.wantMore(opt, maxRestarts, indistFull) {
		return partial, false // resumed past the stopping point — nothing to do
	}
	ob := opt.Obs
	pool := par.New(opt.Workers)
	// free holds the scratch of idle workers; at most Workers tasks run
	// at once, so it never needs more.
	free := make(chan *restartScratch, pool.Workers())
	par.Stream(ctx, pool, maxRestarts-start, func(ctx context.Context, si int) restartResult {
		var sc *restartScratch
		select {
		case sc = <-free:
		default:
			sc = newRestartScratch()
		}
		res := runRestart(ctx, m, opt.Seed, start+si, opt.Lower, slots, ob, sc)
		free <- sc
		return res
	}, func(si int, res restartResult) bool {
		if !res.done {
			interrupted = true
			partial = res
			return false
		}
		improvedFrom := st.bestIndist
		st.fold(start+si, res)
		// Observation happens only here, at the ordered fold point, so
		// every metric value is itself a pure function of (m, opt) —
		// identical at any worker count (DESIGN.md §10).
		ob.M().Inc(obs.RestartsRun)
		ob.M().Add(obs.CandidateScans, res.evals)
		ob.M().Add(obs.LowerCutoffHits, res.cutoffs)
		ob.M().Set(obs.RestartsSinceImprove, int64(st.noImprove))
		ob.M().Set(obs.IndistPairs, st.bestIndist)
		ob.M().Observe(obs.RestartIndist, res.indist)
		if ob.Tracing() {
			ob.Emit("restart_end", map[string]any{
				"restart":  start + si,
				"indist":   res.indist,
				"best":     st.bestIndist,
				"improved": start+si == 0 || res.indist < improvedFrom,
			})
		}
		ob.Tick()
		if opt.CheckpointEvery > 0 && st.restarts%opt.CheckpointEvery == 0 {
			emit()
		}
		if !st.wantMore(opt, maxRestarts, indistFull) {
			return false
		}
		if ctx.Err() != nil {
			interrupted = true
			return false
		}
		return true
	})
	return partial, interrupted
}
