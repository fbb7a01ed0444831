package experiment

import (
	"context"
	"testing"

	"sddict/internal/obs"
)

// TestRunSweepDeterministicAcrossWorkers: the sweep must deliver the same
// rows, in spec order, at every worker count, and a failing row (here an
// unknown profile) must be isolated to its own result.
func TestRunSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Seed: 1}
	specs := []RowSpec{
		{Circuit: "s27", TType: Diagnostic, Config: cfg},
		{Circuit: "no-such-profile", TType: Diagnostic, Config: cfg},
		{Circuit: "s27", TType: TenDetect, Config: cfg},
	}

	run := func(workers int) []RowResult {
		var orderSeen []int
		results := RunSweepObsCtx(context.Background(), workers, specs, nil, func(i int, _ RowResult) {
			orderSeen = append(orderSeen, i)
		})
		for i, got := range orderSeen {
			if got != i {
				t.Fatalf("workers=%d: observe order %v not spec order", workers, orderSeen)
			}
		}
		return results
	}

	ref := run(1)
	if len(ref) != len(specs) {
		t.Fatalf("got %d results, want %d", len(ref), len(specs))
	}
	if ref[1].Err == nil {
		t.Fatalf("unknown profile row did not fail")
	}
	if ref[0].Err != nil || ref[2].Err != nil {
		t.Fatalf("good rows failed: %v / %v", ref[0].Err, ref[2].Err)
	}
	if ref[0].Row.Status != RowComplete || ref[2].Row.Status != RowComplete {
		t.Fatalf("good rows not complete: %s / %s", ref[0].Row.Status, ref[2].Row.Status)
	}

	for _, workers := range []int{2, 3} {
		got := run(workers)
		for i := range specs {
			if (got[i].Err == nil) != (ref[i].Err == nil) {
				t.Fatalf("workers=%d row %d: error mismatch (%v vs %v)", workers, i, got[i].Err, ref[i].Err)
			}
			if got[i].Err != nil {
				continue
			}
			a, b := got[i].Row, ref[i].Row
			if a.IndFull != b.IndFull || a.IndPF != b.IndPF || a.IndSDRand != b.IndSDRand ||
				a.IndSDFinal != b.IndSDFinal || a.Tests != b.Tests ||
				a.BuildStats.Restarts != b.BuildStats.Restarts ||
				a.BuildStats.CandidateEvals != b.BuildStats.CandidateEvals {
				t.Fatalf("workers=%d row %d differs:\n%+v\nvs\n%+v", workers, i, a, b)
			}
		}
	}
}

// TestRunSweepCancelledPrefix: a sweep cancelled mid-run must return an
// exact in-order prefix of the specs — never a full-length slice padded
// with cancellation errors — so callers aligning results to specs by
// index cannot misattribute a row. The observer sees the same prefix.
func TestRunSweepCancelledPrefix(t *testing.T) {
	cfg := Config{Seed: 1}
	var specs []RowSpec
	for i := 0; i < 6; i++ {
		tt := Diagnostic
		if i%2 == 1 {
			tt = TenDetect
		}
		specs = append(specs, RowSpec{Circuit: "s27", TType: tt, Config: cfg})
	}

	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var observed []RowResult
		results := RunSweepObsCtx(ctx, workers, specs, nil, func(i int, res RowResult) {
			observed = append(observed, res)
			if i == 1 {
				cancel()
			}
		})
		cancel()
		if len(results) >= len(specs) {
			t.Fatalf("workers=%d: cancelled sweep returned %d of %d rows — not a prefix",
				workers, len(results), len(specs))
		}
		if len(results) != len(observed) {
			t.Fatalf("workers=%d: %d results but %d observed", workers, len(results), len(observed))
		}
		for i, res := range results {
			if res.Spec != specs[i] {
				t.Fatalf("workers=%d: result %d is for spec %s/%s, want %s/%s",
					workers, i, res.Spec.Circuit, res.Spec.TType, specs[i].Circuit, specs[i].TType)
			}
			if res.Err != nil && ctx.Err() == nil {
				t.Fatalf("workers=%d: delivered row %d failed: %v", workers, i, res.Err)
			}
		}
	}
}

// TestRunSweepObsPerRowMetrics: each delivered row carries its own
// metrics snapshot, and the sweep-level registry is their merge plus the
// row-outcome counters — all recorded at the ordered delivery point.
func TestRunSweepObsPerRowMetrics(t *testing.T) {
	cfg := Config{Seed: 1}
	specs := []RowSpec{
		{Circuit: "s27", TType: Diagnostic, Config: cfg},
		{Circuit: "no-such-profile", TType: Diagnostic, Config: cfg},
		{Circuit: "s27", TType: TenDetect, Config: cfg},
	}
	ob := &obs.Observer{Metrics: obs.NewMetrics()}
	results := RunSweepObsCtx(context.Background(), 2, specs, ob, nil)
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	var wantRestarts int64
	for i, res := range results {
		if res.Metrics == nil {
			t.Fatalf("row %d: no metrics snapshot", i)
		}
		if res.Err == nil {
			if res.Metrics.Counters["restarts_run"] != int64(res.Row.BuildStats.Restarts) {
				t.Fatalf("row %d: scoped restarts_run = %d, BuildStats has %d",
					i, res.Metrics.Counters["restarts_run"], res.Row.BuildStats.Restarts)
			}
			wantRestarts += int64(res.Row.BuildStats.Restarts)
		}
	}
	snap := ob.Metrics.Snapshot()
	if snap.Counters["restarts_run"] != wantRestarts {
		t.Fatalf("merged restarts_run = %d, rows total %d", snap.Counters["restarts_run"], wantRestarts)
	}
	if snap.Counters["sweep_rows_done"] != 2 || snap.Counters["sweep_rows_failed"] != 1 {
		t.Fatalf("row outcome counters = done %d failed %d, want 2/1",
			snap.Counters["sweep_rows_done"], snap.Counters["sweep_rows_failed"])
	}
}

// sweepCounters are the counters RunSweepObsCtx itself records at the
// delivery point, on top of the merged per-row registries.
var sweepCounters = map[string]bool{
	"sweep_rows_done": true, "sweep_rows_failed": true, "sweep_rows_interrupted": true,
}

// TestRunSweepObsMergeExactness: for every pipeline counter, the
// sweep-level registry must equal the sum of the *delivered* rows'
// scoped snapshots — exactly, with failing rows included and nothing
// else mixed in. This is the accounting identity the scoped-registry
// design exists for.
func TestRunSweepObsMergeExactness(t *testing.T) {
	cfg := Config{Seed: 1}
	specs := []RowSpec{
		{Circuit: "s27", TType: Diagnostic, Config: cfg},
		{Circuit: "no-such-profile", TType: Diagnostic, Config: cfg}, // fails
		{Circuit: "s27", TType: TenDetect, Config: cfg},
		{Circuit: "s208", TType: Diagnostic, Config: cfg},
	}
	ob := &obs.Observer{Metrics: obs.NewMetrics()}
	results := RunSweepObsCtx(context.Background(), 2, specs, ob, nil)
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}

	merged := ob.Metrics.Snapshot()
	rowSums := map[string]int64{}
	for _, res := range results {
		for name, v := range res.Metrics.Counters {
			rowSums[name] += v
		}
	}
	for name, v := range merged.Counters {
		if sweepCounters[name] {
			continue
		}
		if rowSums[name] != v {
			t.Errorf("merged %s = %d, rows sum to %d", name, v, rowSums[name])
		}
	}
	for name, v := range rowSums {
		if sweepCounters[name] {
			// Recorded by the sweep itself at delivery, never inside a row.
			if v != 0 {
				t.Errorf("row-scoped registry carries sweep counter %s = %d", name, v)
			}
			continue
		}
		if merged.Counters[name] != v {
			t.Errorf("rows carry %s = %d but merged registry has %d", name, v, merged.Counters[name])
		}
	}
	if got := merged.Histograms["row_elapsed_ms"].Count; got != int64(len(results)) {
		t.Errorf("row_elapsed_ms count = %d, want one observation per delivered row (%d)",
			got, len(results))
	}
}

// TestRunSweepObsCancelledNoLeak: rows that were in flight (or never
// started) when the sweep was cancelled must leak nothing into the
// sweep-level registry — merge happens only at the ordered delivery
// point, so the merged counters stay the exact sum of the delivered
// prefix and the outcome counters stay the prefix length.
func TestRunSweepObsCancelledNoLeak(t *testing.T) {
	cfg := Config{Seed: 1}
	var specs []RowSpec
	for i := 0; i < 6; i++ {
		tt := Diagnostic
		if i%2 == 1 {
			tt = TenDetect
		}
		specs = append(specs, RowSpec{Circuit: "s27", TType: tt, Config: cfg})
	}

	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		ob := &obs.Observer{Metrics: obs.NewMetrics()}
		results := RunSweepObsCtx(ctx, workers, specs, ob, func(i int, _ RowResult) {
			if i == 1 {
				cancel()
			}
		})
		cancel()
		if len(results) >= len(specs) {
			t.Fatalf("workers=%d: sweep was not cancelled early (%d rows)", workers, len(results))
		}

		merged := ob.Metrics.Snapshot()
		rowSums := map[string]int64{}
		var outcomes int64
		for _, res := range results {
			if res.Metrics == nil {
				t.Fatalf("workers=%d: delivered row missing metrics", workers)
			}
			for name, v := range res.Metrics.Counters {
				rowSums[name] += v
			}
		}
		for name, v := range merged.Counters {
			if sweepCounters[name] {
				outcomes += v
				continue
			}
			if rowSums[name] != v {
				t.Errorf("workers=%d: merged %s = %d but delivered rows sum to %d — undelivered row leaked",
					workers, name, v, rowSums[name])
			}
		}
		if outcomes != int64(len(results)) {
			t.Errorf("workers=%d: outcome counters total %d, want %d (one per delivered row)",
				workers, outcomes, len(results))
		}
		if got := merged.Histograms["row_elapsed_ms"].Count; got != int64(len(results)) {
			t.Errorf("workers=%d: row_elapsed_ms count = %d, want %d",
				workers, got, len(results))
		}
	}
}
