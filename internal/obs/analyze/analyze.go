// Package analyze is the read side of the observability layer: it
// parses the JSONL build-event traces and metrics snapshots the
// pipeline writes (DESIGN.md §10) and derives the statistics an
// operator tunes the paper's knobs by — per-phase wall-clock breakdown,
// the restart-convergence curve the CALLS1 stopping rule saturates
// along, the speculation-waste ratio of the parallel restart search,
// checkpoint cadence, and histogram percentile summaries.
//
// Everything here is pure computation over already-recorded telemetry:
// the package opens no files, starts no goroutines, and prints nothing
// (rendering goes through caller-supplied io.Writers, per the noprint
// invariant). cmd/sddstat is the CLI over it.
package analyze

import (
	"fmt"
	"io"

	"sddict/internal/obs"
)

// Worker-side event types (DESIGN.md §10): they record speculative
// execution order, so they are excluded from the fold-ordered timeline
// and counted instead as speculation.
func workerSide(typ string) bool { return typ == "restart_start" || typ == "row_start" }

// phaseOf maps a fold-ordered event type to the phase that produced the
// wall-clock time leading up to it. The names are the report vocabulary.
// resp_build is emitted when response capture starts, so the gap ending
// at it is synthesis, fault collapsing and test generation; the gap
// ending at build_start is response capture and the full-dictionary
// floor. publish is emitted once sdd has written its artifact, so the
// gap ending at it is scoring the dictionaries for the report,
// compiling the artifact and the write itself.
func phaseOf(typ string) string {
	switch typ {
	case "resp_build":
		return "test generation"
	case "build_start":
		return "response capture"
	case "checkpoint_load":
		return "setup"
	case "restart_end":
		return "restart search"
	case "proc2_sweep":
		return "procedure 2"
	case "checkpoint_save":
		return "checkpointing"
	case "build_end", "row_end":
		return "finish"
	case "publish":
		return "publish"
	default:
		return "other"
	}
}

// phaseOrder fixes the rendering and JSON order of phases: pipeline
// order, then the catch-all.
var phaseOrder = []string{
	"test generation", "response capture", "setup", "restart search",
	"procedure 2", "checkpointing", "finish", "publish", "other",
}

// PhaseSpan is the wall-clock total attributed to one phase.
type PhaseSpan struct {
	Phase string `json:"phase"`
	Ms    int64  `json:"ms"`
	// Events is the number of fold-ordered events attributed to the phase.
	Events int `json:"events"`
}

// ConvergencePoint is one folded Procedure 1 restart: the score it
// achieved and the best score after folding it — the paper's
// distinguished-pair trajectory, indexed by restart.
type ConvergencePoint struct {
	// Row labels the build the restart belongs to ("" for single-build
	// traces; "s298/diag"-style for sweep traces).
	Row      string `json:"row,omitempty"`
	Restart  int    `json:"restart"`
	Indist   int64  `json:"indist"`
	Best     int64  `json:"best"`
	Improved bool   `json:"improved"`
}

// SpeculationStats quantifies the work the speculative parallel layers
// threw away: restarts (and sweep rows) started on workers versus
// folded into the ordered result. Discarded work is the price §9 pays
// for wall-clock speedup; this is where it becomes visible.
type SpeculationStats struct {
	RestartsStarted   int `json:"restarts_started"`
	RestartsFolded    int `json:"restarts_folded"`
	RestartsDiscarded int `json:"restarts_discarded"`
	// WasteRatio is discarded/started (0 when nothing started).
	WasteRatio float64 `json:"waste_ratio"`

	RowsStarted   int `json:"rows_started,omitempty"`
	RowsDelivered int `json:"rows_delivered,omitempty"`
}

// CheckpointStats summarizes checkpoint cadence.
type CheckpointStats struct {
	Saves     int `json:"saves"`
	Persisted int `json:"persisted"`
	Loads     int `json:"loads"`
	// MeanIntervalMs is the mean time between consecutive saves
	// (0 with fewer than two saves).
	MeanIntervalMs float64 `json:"mean_interval_ms"`
	// MeanRestartsBetween is the mean restart-count delta between
	// consecutive saves.
	MeanRestartsBetween float64 `json:"mean_restarts_between"`
	// EndsOnSave reports whether the trace's final event is a
	// checkpoint_save — the invariant every interrupted build must hold.
	EndsOnSave bool `json:"ends_on_save"`
}

// BuildInfo collects the build_start/build_end bookends of the last
// build in the trace.
type BuildInfo struct {
	Schema      int   `json:"schema,omitempty"`
	Faults      int   `json:"faults,omitempty"`
	Tests       int   `json:"tests,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
	Workers     int   `json:"workers,omitempty"`
	IndistFull  int64 `json:"indist_full,omitempty"`
	FinalIndist int64 `json:"final_indist,omitempty"`
	Restarts    int   `json:"restarts,omitempty"`
	Interrupted bool  `json:"interrupted,omitempty"`
	// Completed reports whether a build_end was seen at all.
	Completed bool `json:"completed"`
}

// RowSummary is one delivered sweep row (table6 traces).
type RowSummary struct {
	Index     int    `json:"index"`
	Row       string `json:"row"`
	Status    string `json:"status,omitempty"`
	OK        bool   `json:"ok"`
	ElapsedMs int64  `json:"elapsed_ms"`
	Error     string `json:"error,omitempty"`
}

// Run is the reconstructed timeline of one trace file plus, when
// AttachMetrics was called, the percentile summaries of its metrics
// snapshot. It is the machine-readable form of the sddstat report.
type Run struct {
	Events     int   `json:"events"`
	DurationMs int64 `json:"duration_ms"`
	// Builds counts build_start events: an append-mode trace extended
	// across reruns holds several builds; the timeline aggregates them
	// and Build describes the last.
	Builds int `json:"builds"`
	// Truncated is set when the trace ended mid-event (crash/SIGKILL
	// tore the final write); the analysis covers the parsed prefix.
	Truncated bool `json:"truncated,omitempty"`

	Build       BuildInfo          `json:"build"`
	Phases      []PhaseSpan        `json:"phases"`
	Convergence []ConvergencePoint `json:"convergence,omitempty"`
	Speculation SpeculationStats   `json:"speculation"`
	Checkpoints CheckpointStats    `json:"checkpoints"`
	Rows        []RowSummary       `json:"rows,omitempty"`

	// Metrics and Percentiles are populated by AttachMetrics.
	Metrics     *obs.Snapshot                `json:"metrics,omitempty"`
	Percentiles map[string]PercentileSummary `json:"percentiles,omitempty"`
}

// Analyze reconstructs the build timeline from a parsed event stream.
// It is a pure function of the events; an empty trace is an error, any
// non-empty one analyzes (unknown event types land in the "other"
// phase, so newer traces degrade instead of failing).
func Analyze(events []obs.Event) (*Run, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("analyze: empty trace")
	}
	r := &Run{Events: len(events)}

	phaseMs := map[string]int64{}
	phaseEvents := map[string]int{}
	var prevMs int64
	var lastSaveMs, firstSaveMs int64
	var lastSaveRestarts, firstSaveRestarts float64
	best := map[string]int64{} // per-row best, for Improved recomputation safety

	for _, ev := range events {
		if ev.TMs > r.DurationMs {
			r.DurationMs = ev.TMs
		}
		row, _ := ev.Fields["row"].(string)
		switch ev.Type {
		case "restart_start":
			r.Speculation.RestartsStarted++
		case "row_start":
			r.Speculation.RowsStarted++
		}
		if workerSide(ev.Type) {
			continue
		}

		// Timeline attribution: the gap since the previous fold-ordered
		// event belongs to the phase that ends at this one. An append-mode
		// trace restarts t_ms at 0 on each rerun; the clamp keeps those
		// seams from producing negative spans.
		if d := ev.TMs - prevMs; d > 0 {
			phaseMs[phaseOf(ev.Type)] += d
		}
		prevMs = ev.TMs
		phaseEvents[phaseOf(ev.Type)]++

		switch ev.Type {
		case "build_start":
			r.Builds++
			r.Build = BuildInfo{
				Schema:     fieldInt(ev.Fields, "schema"),
				Faults:     fieldInt(ev.Fields, "faults"),
				Tests:      fieldInt(ev.Fields, "tests"),
				Seed:       fieldInt64(ev.Fields, "seed"),
				Workers:    fieldInt(ev.Fields, "workers"),
				IndistFull: fieldInt64(ev.Fields, "indist_full"),
			}
		case "build_end":
			r.Build.Completed = true
			r.Build.FinalIndist = fieldInt64(ev.Fields, "indist")
			r.Build.Restarts = fieldInt(ev.Fields, "restarts")
			r.Build.Interrupted, _ = ev.Fields["interrupted"].(bool)
		case "restart_end":
			r.Speculation.RestartsFolded++
			p := ConvergencePoint{
				Row:     row,
				Restart: fieldInt(ev.Fields, "restart"),
				Indist:  fieldInt64(ev.Fields, "indist"),
				Best:    fieldInt64(ev.Fields, "best"),
			}
			if b, seen := best[row]; !seen || p.Best < b {
				p.Improved = true
				best[row] = p.Best
			}
			r.Convergence = append(r.Convergence, p)
		case "checkpoint_save":
			cs := &r.Checkpoints
			cs.Saves++
			if p, _ := ev.Fields["persisted"].(bool); p {
				cs.Persisted++
			}
			restarts := float64(fieldInt64(ev.Fields, "restarts"))
			if cs.Saves == 1 {
				firstSaveMs, firstSaveRestarts = ev.TMs, restarts
			}
			lastSaveMs, lastSaveRestarts = ev.TMs, restarts
		case "checkpoint_load":
			r.Checkpoints.Loads++
		case "row_end":
			rs := RowSummary{
				Index:     fieldInt(ev.Fields, "index"),
				Row:       row,
				ElapsedMs: fieldInt64(ev.Fields, "elapsed_ms"),
			}
			rs.Status, _ = ev.Fields["status"].(string)
			rs.OK, _ = ev.Fields["ok"].(bool)
			rs.Error, _ = ev.Fields["error"].(string)
			r.Rows = append(r.Rows, rs)
			r.Speculation.RowsDelivered++
		}
	}

	sp := &r.Speculation
	// In-flight work at interruption was started but never folded: it is
	// discarded speculation too, which is why started can exceed folded
	// even on a clean single-worker run that stopped early.
	if sp.RestartsStarted > sp.RestartsFolded {
		sp.RestartsDiscarded = sp.RestartsStarted - sp.RestartsFolded
	}
	if sp.RestartsStarted > 0 {
		sp.WasteRatio = float64(sp.RestartsDiscarded) / float64(sp.RestartsStarted)
	}

	if cs := &r.Checkpoints; cs.Saves > 1 {
		n := float64(cs.Saves - 1)
		cs.MeanIntervalMs = float64(lastSaveMs-firstSaveMs) / n
		cs.MeanRestartsBetween = (lastSaveRestarts - firstSaveRestarts) / n
	}
	r.Checkpoints.EndsOnSave = events[len(events)-1].Type == "checkpoint_save"

	for _, name := range phaseOrder {
		if ms, ok := phaseMs[name]; ok || phaseEvents[name] > 0 {
			r.Phases = append(r.Phases, PhaseSpan{Phase: name, Ms: ms, Events: phaseEvents[name]})
		}
	}
	return r, nil
}

// ReadRun reads a JSONL trace and analyzes it. A trace torn mid-write
// (obs.ErrTruncatedTrace) is analyzed from its parsed prefix with
// Run.Truncated set — post-mortems on crashed runs are exactly when
// this tooling earns its keep. Other parse errors fail.
func ReadRun(r io.Reader) (*Run, error) {
	events, err := obs.ReadEvents(r)
	truncated := false
	if err != nil {
		if !isTruncated(err) {
			return nil, fmt.Errorf("analyze: %w", err)
		}
		truncated = true
	}
	run, err := Analyze(events)
	if err != nil {
		return nil, err
	}
	run.Truncated = truncated
	return run, nil
}

// AttachMetrics couples the run with its -metrics-out snapshot and
// derives the percentile summaries of every non-empty histogram.
func (r *Run) AttachMetrics(s obs.Snapshot) {
	r.Metrics = &s
	for name, hs := range s.Histograms {
		if hs.Count == 0 {
			continue
		}
		if r.Percentiles == nil {
			r.Percentiles = map[string]PercentileSummary{}
		}
		r.Percentiles[name] = Summarize(hs)
	}
}

func fieldInt(fields map[string]any, key string) int { return int(fieldInt64(fields, key)) }

// fieldInt64 reads a numeric trace field. encoding/json decodes JSON
// numbers into float64; freshly-emitted (never round-tripped) events may
// still hold Go integer types.
func fieldInt64(fields map[string]any, key string) int64 {
	switch v := fields[key].(type) {
	case float64:
		return int64(v)
	case int64:
		return v
	case int:
		return int64(v)
	default:
		return 0
	}
}
