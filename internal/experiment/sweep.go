package experiment

import (
	"context"
	"time"

	"sddict/internal/obs"
	"sddict/internal/par"
)

// RowSpec identifies one row of a Table 6 sweep together with its
// per-row configuration (seed, workers, checkpoint path).
type RowSpec struct {
	Circuit string
	TType   TestSetType
	Config  Config
}

// RowResult couples a finished sweep row with its spec and failure state.
// Err carries prepare/build failures (including recovered panics, as
// *StageError); when Err is a checkpoint-save failure the Row is still
// valid and Row.Dict is non-nil, mirroring BuildRowCtx's contract.
type RowResult struct {
	Spec    RowSpec
	Row     Row
	GenInfo string
	Err     error
	// Metrics is the row's own observability snapshot (nil when the sweep
	// runs unobserved): each row records into a scoped registry, so its
	// counters are untangled from concurrent rows'.
	Metrics *obs.Snapshot

	ob *obs.Observer // the row's scoped observer, consumed at the fold point
}

// rowLabel names a row in traces and scoped metrics.
func rowLabel(sp RowSpec) string { return sp.Circuit + "/" + string(sp.TType) }

// runSpec executes one full pipeline row under the row's scoped observer.
// Panics inside the pipeline are already converted to *StageError by the
// recoverStage defers in PrepareProfileCtx and BuildRowCtx, so a worker
// running this task can only propagate a panic from outside the pipeline
// proper.
func runSpec(ctx context.Context, sp RowSpec, ob *obs.Observer) RowResult {
	rob := ob.Scoped(rowLabel(sp))
	if rob.Tracing() {
		// Worker-side like restart_start: records real execution order.
		rob.Emit("row_start", nil)
	}
	if sp.Config.Obs == nil {
		sp.Config.Obs = rob
	}
	res := RowResult{Spec: sp, ob: rob}
	pr, err := PrepareProfileCtx(ctx, sp.Circuit, sp.TType, sp.Config)
	if err != nil {
		res.Err = err
		return res
	}
	res.GenInfo = pr.GenInfo
	row, err := BuildRowCtx(ctx, pr, sp.TType, sp.Config)
	row.Circuit = sp.Circuit
	res.Row, res.Err = row, err
	return res
}

// RunSweepObsCtx runs the given sweep rows, at most workers concurrently
// (0 = one per available CPU), and returns their results in spec order.
// Rows are independent pipelines — each fails, degrades (RowInterrupted)
// or panics on its own without affecting the others, exactly as in the
// sequential sweep. observe, when non-nil, is called with each result in
// strict spec order as soon as every earlier row has been delivered, so
// callers can stream a deterministic report while later rows still run.
//
// On cancellation the returned slice is the in-order prefix of specs
// whose rows were delivered before the context ended — callers must align
// results to specs by RowResult.Spec (or by prefix), never assume
// len(results) == len(specs).
//
// Worker parallelism composes with Config.Workers (intra-row): a sweep of
// many small circuits parallelizes best across rows, a single huge row
// across restarts and fault shards. Both knobs preserve byte-identical
// results; only scheduling changes.
//
// ob may be nil. Each row runs under a scoped child observer (fresh
// metrics registry, shared trace), and at the ordered delivery point the
// row's counters are merged into ob's registry and snapshotted into
// RowResult.Metrics — so sweep-level metric values are independent of
// worker count. Row outcome counters (sweep_rows_done/failed/interrupted)
// and the row_end trace event are likewise recorded only at delivery.
func RunSweepObsCtx(ctx context.Context, workers int, specs []RowSpec, ob *obs.Observer, observe func(i int, res RowResult)) []RowResult {
	results := make([]RowResult, 0, len(specs))
	pool := par.New(workers)
	start := time.Now()
	par.Stream(ctx, pool, len(specs), func(ctx context.Context, i int) RowResult {
		return runSpec(ctx, specs[i], ob)
	}, func(i int, res RowResult) bool {
		if rob := res.ob; rob != nil {
			snap := rob.Metrics.Snapshot()
			res.Metrics = &snap
			res.ob = nil
			ob.M().Merge(rob.Metrics)
		}
		switch {
		case res.Err != nil:
			ob.M().Inc(obs.SweepRowsFailed)
		case res.Row.Status == RowInterrupted:
			ob.M().Inc(obs.SweepRowsInterrupted)
		default:
			ob.M().Inc(obs.SweepRowsDone)
		}
		ob.M().Observe(obs.RowElapsedMs, res.Row.Elapsed.Milliseconds())
		if ob.Tracing() {
			f := map[string]any{
				"row": rowLabel(res.Spec), "index": i,
				"status": string(res.Row.Status), "ok": res.Err == nil,
				"elapsed_ms": time.Since(start).Milliseconds(),
			}
			if res.Err != nil {
				f["error"] = res.Err.Error()
			}
			ob.Emit("row_end", f)
		}
		ob.Tick()
		results = append(results, res)
		if observe != nil {
			observe(i, res)
		}
		// Stop delivering once the context ends: the returned results stay
		// an exact prefix of specs instead of a full-length slice padded
		// with cancellation errors.
		return ctx.Err() == nil
	})
	return results
}
