package analyze

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sddict/internal/obs"
)

// buildTrace emits a synthetic but schema-faithful single-build trace:
// test generation, response capture, three folded restarts (one of four started on
// workers is discarded speculation), two checkpoints, one Procedure 2
// sweep, clean build_end. The clock is scripted so every phase span is
// exact.
func buildTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	at := func(ms int64) { now = time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	tr := obs.NewTracer(&buf, clock)

	at(100)
	tr.Emit("resp_build", map[string]any{"faults": 50, "tests": 10})
	at(120)
	tr.Emit("build_start", map[string]any{
		"schema": obs.TraceSchemaVersion, "faults": 50, "tests": 10,
		"seed": 7, "workers": 2, "indist_full": 3,
	})
	at(130)
	for i := 0; i < 4; i++ { // four speculative starts, three will fold
		tr.Emit("restart_start", map[string]any{"restart": i})
	}
	at(500)
	tr.Emit("restart_end", map[string]any{"restart": 0, "indist": 10, "best": 10, "improved": true})
	at(520)
	tr.Emit("checkpoint_save", map[string]any{"restarts": 1, "best_indist": 10, "persisted": true})
	at(800)
	tr.Emit("restart_end", map[string]any{"restart": 1, "indist": 8, "best": 8, "improved": true})
	at(820)
	tr.Emit("checkpoint_save", map[string]any{"restarts": 2, "best_indist": 8, "persisted": true})
	at(900)
	tr.Emit("restart_end", map[string]any{"restart": 2, "indist": 9, "best": 8, "improved": false})
	at(1000)
	tr.Emit("proc2_sweep", map[string]any{"sweep": 1, "indist": 7})
	at(1100)
	tr.Emit("build_end", map[string]any{"indist": 7, "restarts": 3, "interrupted": false})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzePublishPhase: the gap ending at sdd's publish event is
// its own phase, rendered after the build's.
func TestAnalyzePublishPhase(t *testing.T) {
	var buf bytes.Buffer
	now := time.Unix(0, 0)
	tr := obs.NewTracer(&buf, func() time.Time { return now })
	at := func(ms int64) { now = time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	at(10)
	tr.Emit("resp_build", map[string]any{"faults": 5, "tests": 2})
	at(20)
	tr.Emit("build_start", map[string]any{"schema": obs.TraceSchemaVersion, "faults": 5, "tests": 2})
	at(50)
	tr.Emit("build_end", map[string]any{"indist": 1, "restarts": 1, "interrupted": false})
	at(135)
	tr.Emit("publish", map[string]any{"bytes": 10323, "recycled": true})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := ReadRun(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range run.Phases {
		names = append(names, p.Phase)
		if p.Phase == "publish" && (p.Ms != 85 || p.Events != 1) {
			t.Errorf("publish phase = %+v, want 85 ms over 1 event", p)
		}
	}
	if got := strings.Join(names, ","); !strings.HasSuffix(got, "finish,publish") {
		t.Errorf("phases %s, want publish rendered after finish", got)
	}
}

func TestAnalyzeTimeline(t *testing.T) {
	run, err := ReadRun(bytes.NewReader(buildTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	if run.Truncated {
		t.Error("clean trace reported truncated")
	}
	if run.Events != 13 {
		t.Errorf("events = %d, want 13", run.Events)
	}
	if run.DurationMs != 1100 {
		t.Errorf("duration = %d, want 1100", run.DurationMs)
	}
	if run.Builds != 1 {
		t.Errorf("builds = %d, want 1", run.Builds)
	}

	b := run.Build
	if b.Schema != obs.TraceSchemaVersion || b.Faults != 50 || b.Tests != 10 ||
		b.Seed != 7 || b.Workers != 2 || b.IndistFull != 3 {
		t.Errorf("build info = %+v", b)
	}
	if !b.Completed || b.Interrupted || b.FinalIndist != 7 || b.Restarts != 3 {
		t.Errorf("build end = %+v", b)
	}

	wantPhases := map[string]int64{
		"test generation":  100, // 0 -> 100
		"response capture": 20,  // 100 -> 120
		"restart search":   740, // 380 + 280 + 80 (worker-side starts skipped)
		"checkpointing":    40,  // 20 + 20
		"procedure 2":      100, // 900 -> 1000
		"finish":           100, // 1000 -> 1100
	}
	got := map[string]int64{}
	for _, p := range run.Phases {
		got[p.Phase] = p.Ms
	}
	for name, ms := range wantPhases {
		if got[name] != ms {
			t.Errorf("phase %q = %dms, want %dms (all: %v)", name, got[name], ms, got)
		}
	}

	if len(run.Convergence) != 3 {
		t.Fatalf("convergence points = %d, want 3", len(run.Convergence))
	}
	wantImproved := []bool{true, true, false}
	for i, p := range run.Convergence {
		if p.Restart != i || p.Improved != wantImproved[i] {
			t.Errorf("convergence[%d] = %+v", i, p)
		}
	}

	sp := run.Speculation
	if sp.RestartsStarted != 4 || sp.RestartsFolded != 3 || sp.RestartsDiscarded != 1 {
		t.Errorf("speculation = %+v", sp)
	}
	if sp.WasteRatio != 0.25 {
		t.Errorf("waste ratio = %v, want 0.25", sp.WasteRatio)
	}

	cs := run.Checkpoints
	if cs.Saves != 2 || cs.Persisted != 2 {
		t.Errorf("checkpoints = %+v", cs)
	}
	if cs.MeanIntervalMs != 300 {
		t.Errorf("mean checkpoint interval = %v, want 300", cs.MeanIntervalMs)
	}
	if cs.MeanRestartsBetween != 1 {
		t.Errorf("mean restarts between saves = %v, want 1", cs.MeanRestartsBetween)
	}
	if cs.EndsOnSave {
		t.Error("clean build_end trace must not report ends_on_save")
	}
}

func TestAnalyzeTruncatedTrace(t *testing.T) {
	full := buildTrace(t)
	torn := full[:len(full)-15] // cut inside the final build_end line

	run, err := ReadRun(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn trace must analyze from its prefix: %v", err)
	}
	if !run.Truncated {
		t.Error("torn trace not flagged truncated")
	}
	if run.Build.Completed {
		t.Error("build_end was the torn event; build must not read completed")
	}
	if run.Speculation.RestartsFolded != 3 {
		t.Errorf("prefix lost folded restarts: %+v", run.Speculation)
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("empty trace must be an error")
	}
}

func TestRunWriteTextReport(t *testing.T) {
	run, err := ReadRun(bytes.NewReader(buildTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	m.Add(obs.CandidateScans, 1234)
	for _, v := range []int64{3, 5, 9, 17} {
		m.Observe(obs.RestartIndist, v)
	}
	run.AttachMetrics(m.Snapshot())

	var buf bytes.Buffer
	if err := run.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"phase breakdown:",
		"restart search",
		"procedure 2",
		"restart convergence (improvements only):",
		"restart    0: best 10",
		"speculation: 4 restarts started, 3 folded, 1 discarded (25.0% waste)",
		"checkpoints: 2 saves (2 persisted, 0 loads)",
		"histogram percentiles:",
		"restart_indist",
		"p50=",
		"candidate_scans = 1234",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeSweepRows(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, nil)
	tr.Emit("row_start", map[string]any{"row": "s27/diag"})
	tr.Emit("row_start", map[string]any{"row": "s208/diag"})
	tr.Emit("row_start", map[string]any{"row": "s298/diag"})
	tr.Emit("row_end", map[string]any{"row": "s27/diag", "index": 0, "status": "ok", "ok": true, "elapsed_ms": 40})
	tr.Emit("row_end", map[string]any{"row": "s208/diag", "index": 1, "status": "failed", "ok": false, "elapsed_ms": 55, "error": "boom"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if run.Speculation.RowsStarted != 3 || run.Speculation.RowsDelivered != 2 {
		t.Errorf("row speculation = %+v", run.Speculation)
	}
	if len(run.Rows) != 2 || run.Rows[1].Error != "boom" || run.Rows[0].Row != "s27/diag" {
		t.Errorf("rows = %+v", run.Rows)
	}
	var rep bytes.Buffer
	if err := run.WriteText(&rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "sweep rows (2 delivered of 3 started):") {
		t.Errorf("report missing row section:\n%s", rep.String())
	}
}
