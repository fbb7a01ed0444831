package sddict_test

// Parallel-determinism regression tests (DESIGN.md §9): every layer that
// fans out across internal/par — the response-matrix capture and the
// Procedure 1 restart search — must produce byte-identical results at
// every worker count, including across a checkpoint interrupt/resume
// boundary. CI runs this file under GOMAXPROCS=1 and GOMAXPROCS=4.

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"sddict/internal/core"
	"sddict/internal/experiment"
	"sddict/internal/netlist"
	"sddict/internal/obs"
	"sddict/internal/resp"
)

// detProfiles are the two small circuit profiles the regression pins;
// each pairs with a different test-set flavour so both ATPG paths feed
// the parallel layers.
var detProfiles = []struct {
	name string
	tt   experiment.TestSetType
}{
	{"s27", experiment.Diagnostic},
	{"s208", experiment.TenDetect},
}

// workerCounts are the pool sizes every baseline must agree across. The
// NumCPU entry makes the test exercise the machine's real parallelism,
// whatever CI box it lands on.
func workerCounts() []int {
	return []int{1, 4, runtime.NumCPU()}
}

func prepareDet(t *testing.T, name string, tt experiment.TestSetType) *experiment.Prepared {
	t.Helper()
	pr, err := experiment.PrepareProfileCtx(context.Background(), name, tt, experiment.Config{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatalf("prepare %s/%s: %v", name, tt, err)
	}
	return pr
}

func assertSameBuild(t *testing.T, label string, dRef, d *core.Dictionary, stRef, st core.BuildStats) {
	t.Helper()
	if st != stRef {
		t.Fatalf("%s: BuildStats differ:\n%+v\nvs reference\n%+v", label, st, stRef)
	}
	for j := range dRef.Baselines {
		if d.Baselines[j] != dRef.Baselines[j] {
			t.Fatalf("%s: baseline %d = %d, reference %d", label, j, d.Baselines[j], dRef.Baselines[j])
		}
	}
}

// TestBuildSameDiffWorkersIdentical: identical dictionaries and identical
// BuildStats counters (restarts, candidate evaluations, every indist
// figure) at workers 1, 4 and NumCPU.
func TestBuildSameDiffWorkersIdentical(t *testing.T) {
	for _, prof := range detProfiles {
		pr := prepareDet(t, prof.name, prof.tt)
		opt := core.DefaultOptions
		opt.Seed = 11
		opt.Calls1 = 8
		opt.MaxRestarts = 40

		opt.Workers = 1
		dRef, stRef := mustBuildSameDiff(t, pr.Matrix, opt)
		for _, workers := range workerCounts()[1:] {
			o := opt
			o.Workers = workers
			d, st := mustBuildSameDiff(t, pr.Matrix, o)
			assertSameBuild(t, prof.name+"/workers="+itoa(workers), dRef, d, stRef, st)
		}
	}
}

// TestBuildSameDiffMultiWorkersIdentical pins the two-baseline build the
// way TestBuildSameDiffWorkersIdentical pins the one-baseline build: both
// baseline slots, every BuildStats field and the metrics snapshot must be
// identical at every worker count, with an Observer attached or not.
// Golden (IndistFinal, CandidateEvals, Restarts) triples guard against a
// change that shifts every worker count together; s27 runs ten restarts,
// so its triple exercises the restart fold and the CALLS_1 stop rule.
func TestBuildSameDiffMultiWorkersIdentical(t *testing.T) {
	golden := map[string]struct {
		indistFinal, candEvals int64
		restarts               int
	}{
		"s27":  {indistFinal: 7, candEvals: 1480, restarts: 10},
		"s208": {indistFinal: 80, candEvals: 13305, restarts: 1},
	}
	for _, prof := range detProfiles {
		pr := prepareDet(t, prof.name, prof.tt)
		opt := core.DefaultOptions
		opt.Seed = 1
		opt.Calls1 = 8
		opt.MaxRestarts = 40

		opt.Workers = 1
		dRef, stRef := mustBuildSameDiffMulti(t, pr.Matrix, opt)
		if g, ok := golden[prof.name]; ok {
			if stRef.IndistFinal != g.indistFinal || stRef.CandidateEvals != g.candEvals || stRef.Restarts != g.restarts {
				t.Fatalf("%s: (IndistFinal, CandidateEvals, Restarts) = (%d, %d, %d), golden (%d, %d, %d)",
					prof.name, stRef.IndistFinal, stRef.CandidateEvals, stRef.Restarts,
					g.indistFinal, g.candEvals, g.restarts)
			}
		}

		var refSnap *obs.Snapshot
		for _, workers := range []int{1, 2, 4} {
			for _, observed := range []bool{false, true} {
				o := opt
				o.Workers = workers
				var m *obs.Metrics
				if observed {
					m = obs.NewMetrics()
					o.Obs = &obs.Observer{Metrics: m, Trace: obs.NewTracer(io.Discard, nil)}
				}
				label := prof.name + "/multi workers=" + itoa(workers) + " observed=" + strconv.FormatBool(observed)
				d, st := mustBuildSameDiffMulti(t, pr.Matrix, o)
				assertSameBuild(t, label, dRef, d, stRef, st)
				for j := range dRef.ExtraBaselines {
					if d.ExtraBaselines[j] != dRef.ExtraBaselines[j] {
						t.Fatalf("%s: extra baseline %d = %d, reference %d", label, j, d.ExtraBaselines[j], dRef.ExtraBaselines[j])
					}
				}
				if !observed {
					continue
				}
				snap := m.Snapshot()
				if refSnap == nil {
					refSnap = &snap
				} else if !reflect.DeepEqual(snap, *refSnap) {
					t.Fatalf("%s: metrics snapshot\n%+v\ndiffers from workers=1\n%+v", label, snap, *refSnap)
				}
				if snap.Counters["restarts_run"] != int64(stRef.Restarts) {
					t.Fatalf("%s: restarts_run = %d, BuildStats has %d", label, snap.Counters["restarts_run"], stRef.Restarts)
				}
			}
		}
	}
}

// TestResponseMatrixWorkersIdentical: the sharded fault sweep and the
// concurrent per-test assembly must reproduce the sequential matrix
// exactly — class ids included, not just the partition they induce.
func TestResponseMatrixWorkersIdentical(t *testing.T) {
	for _, prof := range detProfiles {
		pr := prepareDet(t, prof.name, prof.tt)
		view := netlist.NewScanView(pr.Circuit)
		ref := pr.Matrix
		for _, workers := range workerCounts()[1:] {
			m, err := resp.BuildObsCtx(context.Background(), workers, view, pr.Faults, pr.Tests, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", prof.name, workers, err)
			}
			for j := 0; j < ref.K; j++ {
				if m.NumClasses(j) != ref.NumClasses(j) {
					t.Fatalf("%s workers=%d test %d: %d classes, want %d",
						prof.name, workers, j, m.NumClasses(j), ref.NumClasses(j))
				}
				for i := range ref.Class[j] {
					if m.Class[j][i] != ref.Class[j][i] {
						t.Fatalf("%s workers=%d: Class[%d][%d] = %d, want %d",
							prof.name, workers, j, i, m.Class[j][i], ref.Class[j][i])
					}
				}
			}
		}
	}
}

// TestPrepareWorkersIdentical: test generation captures responses at
// the row's worker count, and must produce the same test set and the
// same ATPG counters at every one. s298/diag runs diagnostic generation
// with redundancy screening that reuses detection's SAT and PODEM proofs.
func TestPrepareWorkersIdentical(t *testing.T) {
	var refKeys []string
	var refCounters map[string]int64
	for _, workers := range workerCounts() {
		ob := &obs.Observer{Metrics: obs.NewMetrics()}
		pr, err := experiment.PrepareProfileCtx(context.Background(), "s298", experiment.Diagnostic, experiment.Config{Seed: 1, Workers: workers, Obs: ob})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		keys := make([]string, pr.Tests.Len())
		for j, v := range pr.Tests.Vecs {
			keys[j] = v.Key()
		}
		counters := ob.M().Snapshot().Counters
		if refKeys == nil {
			refKeys, refCounters = keys, counters
			if counters["atpg_sat_calls"] == 0 || counters["atpg_sat_reused"] == 0 || counters["atpg_podem_proofs"] == 0 {
				t.Fatalf("workers=%d: atpg counters %v record no SAT work", workers, counters)
			}
			continue
		}
		if !reflect.DeepEqual(keys, refKeys) {
			t.Fatalf("workers=%d: test set differs from workers=1", workers)
		}
		for _, name := range []string{"atpg_podem_aborts", "atpg_sat_calls", "atpg_sat_reused", "atpg_sat_conflicts", "atpg_podem_proofs"} {
			if counters[name] != refCounters[name] {
				t.Fatalf("workers=%d: %s = %d, workers=1 recorded %d", workers, name, counters[name], refCounters[name])
			}
		}
	}
}

// TestCheckpointResumeAcrossWorkerCounts interrupts a parallel build
// mid-restart-phase, then resumes it at every worker count; each resumed
// run must land exactly on the uninterrupted workers=1 result — the
// checkpoint's recorded seed schedule makes the remaining restarts a pure
// replay whatever the pool size.
func TestCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	pr := prepareDet(t, "s27", experiment.Diagnostic)
	m := pr.Matrix

	opt := core.DefaultOptions
	opt.Seed = 23
	opt.Calls1 = 6
	opt.MaxRestarts = 25

	opt.Workers = 1
	dRef, stRef := mustBuildSameDiff(t, m, opt)
	if stRef.Restarts < 3 {
		t.Skipf("reference finished in %d restarts; nothing to interrupt", stRef.Restarts)
	}

	// Interrupt a 4-worker run once two restarts have been folded.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *core.Checkpoint
	optA := opt
	optA.Workers = 4
	optA.CheckpointEvery = 1
	optA.OnCheckpoint = func(cp core.Checkpoint) {
		c := cp
		last = &c
		if cp.Restarts >= 2 {
			cancel()
		}
	}
	_, stA, err := core.BuildSameDiffCtx(ctx, m, optA)
	if err != nil {
		t.Fatalf("interrupted build: %v", err)
	}
	if !stA.Interrupted || last == nil {
		t.Fatalf("setup failed: interrupted=%v checkpoint=%v", stA.Interrupted, last != nil)
	}
	if last.Restarts >= stRef.Restarts {
		t.Fatalf("checkpoint already has %d of %d restarts — cancel earlier", last.Restarts, stRef.Restarts)
	}

	for _, workers := range workerCounts() {
		o := opt
		o.Workers = workers
		o.Resume = last
		d, st, err := core.BuildSameDiffCtx(context.Background(), m, o)
		if err != nil {
			t.Fatalf("resume workers=%d: %v", workers, err)
		}
		if !st.Resumed || st.Interrupted {
			t.Fatalf("resume workers=%d: resumed=%v interrupted=%v", workers, st.Resumed, st.Interrupted)
		}
		st.Resumed = false // the only legitimate difference from the reference
		assertSameBuild(t, "resume workers="+itoa(workers), dRef, d, stRef, st)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestObservabilityPureMeasurement (DESIGN.md §10): attaching a full
// Observer — metrics, trace, progress — must not change a single bit of
// the dictionary, the BuildStats, or the response matrix, at any worker
// count. And because the layers record only at ordered fold points, the
// counter values themselves must also be identical at every worker count.
func TestObservabilityPureMeasurement(t *testing.T) {
	for _, prof := range detProfiles {
		pr := prepareDet(t, prof.name, prof.tt)
		opt := core.DefaultOptions
		opt.Seed = 11
		opt.Calls1 = 8
		opt.MaxRestarts = 40

		opt.Workers = 1
		dRef, stRef := mustBuildSameDiff(t, pr.Matrix, opt)

		var refCounters map[string]int64
		for _, workers := range workerCounts() {
			var trace bytes.Buffer
			var progress bytes.Buffer
			// The clock is shared by the tracer (worker-side emits) and the
			// progress reporter (fold-side ticks), so it must be thread-safe
			// like time.Now.
			var now atomic.Int64
			clock := func() time.Time { return time.Unix(now.Add(1), 0) }
			m := obs.NewMetrics()
			ob := &obs.Observer{
				Metrics:  m,
				Trace:    obs.NewTracer(&trace, clock),
				Progress: obs.NewProgress(&progress, time.Second, clock, m),
			}
			o := opt
			o.Workers = workers
			o.Obs = ob
			saveArtifactOnFailure(t, "trace-"+prof.name+"-workers"+itoa(workers)+".jsonl", trace.Bytes)
			d, st := mustBuildSameDiff(t, pr.Matrix, o)
			assertSameBuild(t, prof.name+"/observed workers="+itoa(workers), dRef, d, stRef, st)
			if _, err := obs.ReadEvents(&trace); err != nil {
				t.Fatalf("%s workers=%d: trace does not parse: %v", prof.name, workers, err)
			}
			snap := m.Snapshot()
			if snap.Counters["restarts_run"] != int64(stRef.Restarts) {
				t.Fatalf("%s workers=%d: restarts_run = %d, BuildStats has %d",
					prof.name, workers, snap.Counters["restarts_run"], stRef.Restarts)
			}
			if snap.Counters["candidate_scans"] != stRef.CandidateEvals {
				t.Fatalf("%s workers=%d: candidate_scans = %d, BuildStats has %d",
					prof.name, workers, snap.Counters["candidate_scans"], stRef.CandidateEvals)
			}
			if refCounters == nil {
				refCounters = snap.Counters
			} else {
				for name, v := range snap.Counters {
					if v != refCounters[name] {
						t.Fatalf("%s workers=%d: counter %s = %d, workers=1 recorded %d",
							prof.name, workers, name, v, refCounters[name])
					}
				}
			}
		}

		// The observed response matrix must equal the unobserved one.
		view := netlist.NewScanView(pr.Circuit)
		for _, workers := range workerCounts() {
			ob := &obs.Observer{Metrics: obs.NewMetrics()}
			m, err := resp.BuildObsCtx(context.Background(), workers, view, pr.Faults, pr.Tests, ob)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", prof.name, workers, err)
			}
			for j := 0; j < pr.Matrix.K; j++ {
				for i := range pr.Matrix.Class[j] {
					if m.Class[j][i] != pr.Matrix.Class[j][i] {
						t.Fatalf("%s workers=%d: observed matrix Class[%d][%d] = %d, want %d",
							prof.name, workers, j, i, m.Class[j][i], pr.Matrix.Class[j][i])
					}
				}
			}
			if got := ob.M().Counter(obs.SimBatches); got == 0 {
				t.Fatalf("%s workers=%d: sim_batches not recorded", prof.name, workers)
			}
		}
	}
}

// TestInterruptedTraceEndsWithCheckpointSave: a build interrupted during
// the restart phase must leave a parseable trace whose final event is the
// checkpoint_save of the completed work — the invariant that makes an
// interrupted -trace-out file trustworthy for post-mortems.
func TestInterruptedTraceEndsWithCheckpointSave(t *testing.T) {
	pr := prepareDet(t, "s27", experiment.Diagnostic)
	m := pr.Matrix

	opt := core.DefaultOptions
	opt.Seed = 23
	opt.Calls1 = 6
	opt.MaxRestarts = 25
	opt.Workers = 4
	opt.CheckpointEvery = 1

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var trace bytes.Buffer
	saveArtifactOnFailure(t, "trace-interrupted.jsonl", trace.Bytes)
	opt.Obs = &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTracer(&trace, nil)}
	opt.OnCheckpoint = func(cp core.Checkpoint) {
		if cp.Restarts >= 2 {
			cancel()
		}
	}
	_, st, err := core.BuildSameDiffCtx(ctx, m, opt)
	if err != nil {
		t.Fatalf("interrupted build: %v", err)
	}
	if !st.Interrupted {
		t.Skip("build finished before the cancel landed; nothing to assert")
	}
	events, err := obs.ReadEvents(&trace)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("interrupted build left an empty trace")
	}
	last := events[len(events)-1]
	if last.Type != "checkpoint_save" {
		t.Fatalf("trace ends with %q, want checkpoint_save (events: %d)", last.Type, len(events))
	}
	if persisted, _ := last.Fields["persisted"].(bool); !persisted {
		t.Fatalf("final checkpoint_save not persisted: %v", last.Fields)
	}
	if got := opt.Obs.M().Counter(obs.CheckpointSaves); got < 2 {
		t.Fatalf("checkpoint_saves = %d, want >= 2", got)
	}
}
