// Package obs is the repository's observability layer: atomic metrics
// (counters, gauges, power-of-two histograms), a structured JSONL
// build-event trace, and a polled progress reporter, bundled behind a
// nil-safe Observer handle the library layers thread through their
// options.
//
// Observability is pure measurement (DESIGN.md §10). Nothing in this
// package feeds back into a computation: dictionaries, BuildStats and
// response matrices are byte-identical whether an Observer is attached
// or not, at every worker count — the root determinism_test.go pins
// this. To keep even the *measurements* deterministic, the search layers
// record metrics only at their ordered fold points (where speculative
// parallel work has already been discarded), so counter values are
// identical at every worker count too; only trace `restart_start` /
// `row_start` events, which deliberately expose wall-clock scheduling,
// may differ between runs.
//
// The package never reads the wall clock itself: tracers and progress
// reporters take a caller-supplied clock (the cmd layer passes
// time.Now), keeping library builds replayable and tests hermetic. It
// also never starts goroutines except for the pprof debug listener
// (see pprof.go), which serves read-only runtime profiles and has no
// result to merge — the sddlint concurrency analyzer documents that
// exemption.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
)

// Counter identifies one monotonically increasing metric.
type Counter int

// Counters recorded by the library layers.
const (
	// RestartsRun counts Procedure 1 restarts folded into the search
	// state (speculative restarts discarded by the ordered fold are not
	// counted, so the value is identical at every worker count).
	RestartsRun Counter = iota
	// CandidateScans counts dist(z) candidate evaluations folded into
	// the search (the paper's CALLS_2 cost driver).
	CandidateScans
	// LowerCutoffHits counts Procedure 1 candidate scans stopped early
	// by the LOWER patience cutoff.
	LowerCutoffHits
	// Proc2Accepted counts Procedure 2 baseline replacements taken.
	Proc2Accepted
	// Proc2Rejected counts Procedure 2 replacement evaluations that kept
	// the incumbent baseline.
	Proc2Rejected
	// SimBatches counts 64-pattern fault-simulation batches swept while
	// building response matrices.
	SimBatches
	// SimRootFlips counts the fanout-free-region root flips those batches
	// propagated (one per distinct root reached per batch, where
	// per-fault propagation would run one per fault).
	SimRootFlips
	// CheckpointSaves counts construction snapshots emitted.
	CheckpointSaves
	// SweepRowsDone counts Table-6 sweep rows that completed normally.
	SweepRowsDone
	// SweepRowsFailed counts sweep rows that failed (including rows
	// recovered from a panic).
	SweepRowsFailed
	// SweepRowsInterrupted counts sweep rows cut short by cancellation
	// but still delivering a best-so-far dictionary.
	SweepRowsInterrupted
	// ServeRequests counts requests the diagnosis service admitted past
	// its in-flight cap.
	ServeRequests
	// ServeShed counts requests rejected with 503 + Retry-After because
	// the in-flight cap was reached.
	ServeShed
	// ServePanics counts handler panics converted to 500s by the
	// recovery middleware.
	ServePanics
	// ServeDictLoads counts dictionary artifacts loaded into the serve
	// registry (cache misses and explicit loads).
	ServeDictLoads
	// ServeDictHits counts diagnosis requests served from an
	// already-loaded registry entry.
	ServeDictHits
	// ServeDictEvicts counts registry entries evicted (LRU pressure or
	// explicit evict requests).
	ServeDictEvicts
	// LoadRetries counts sddload request attempts retried after a 503
	// (the chaos driver's backoff loop).
	LoadRetries
	// ServeRecallHits counts diagnosis observations answered from an
	// exact case-store match (byte-identical to recompute by identity).
	ServeRecallHits
	// ServeRecallNear counts observations answered from a near
	// (Hamming-budget) case-store match that passed the false-dedup
	// guard.
	ServeRecallNear
	// ServeRecallMisses counts observations that went through the full
	// recompute (no usable prior case), including near candidates
	// rejected by the guard.
	ServeRecallMisses
	// ServeSpans counts request spans flushed to the trace (sampled,
	// slow, or failed — see span.go emission rules).
	ServeSpans
	// ServeSlowRequests counts requests over the slow-request threshold
	// (-slow-ms); such spans always emit, sampled or not.
	ServeSlowRequests
	// ATPGPodemAborts counts PODEM runs of detection test generation
	// stopped at the backtrack limit.
	ATPGPodemAborts
	// ATPGSATCalls counts SAT calls of test generation: detection's
	// fallback, redundancy screening and fault pairs.
	ATPGSATCalls
	// ATPGSATReused counts redundancy-screening calls answered by a
	// verdict carried from detection instead of a solver run (included in
	// ATPGSATCalls).
	ATPGSATReused
	// ATPGSATConflicts sums the solver conflicts of test generation's SAT
	// calls, carried verdicts included.
	ATPGSATConflicts
	// ATPGPodemProofs counts the carried verdicts of ATPGSATReused that
	// were PODEM's redundancy proofs (the rest are the SAT fallback's).
	ATPGPodemProofs

	numCounters
)

var counterNames = [numCounters]string{
	RestartsRun:          "restarts_run",
	CandidateScans:       "candidate_scans",
	LowerCutoffHits:      "lower_cutoff_hits",
	Proc2Accepted:        "proc2_accepted",
	Proc2Rejected:        "proc2_rejected",
	SimBatches:           "sim_batches",
	SimRootFlips:         "sim_root_flips",
	CheckpointSaves:      "checkpoint_saves",
	SweepRowsDone:        "sweep_rows_done",
	SweepRowsFailed:      "sweep_rows_failed",
	SweepRowsInterrupted: "sweep_rows_interrupted",
	ServeRequests:        "serve_requests",
	ServeShed:            "serve_shed",
	ServePanics:          "serve_panics",
	ServeDictLoads:       "serve_dict_loads",
	ServeDictHits:        "serve_dict_hits",
	ServeDictEvicts:      "serve_dict_evicts",
	LoadRetries:          "load_retries",
	ServeRecallHits:      "serve_recall_hits",
	ServeRecallNear:      "serve_recall_near",
	ServeRecallMisses:    "serve_recall_misses",
	ServeSpans:           "serve_spans",
	ServeSlowRequests:    "serve_slow_requests",
	ATPGPodemAborts:      "atpg_podem_aborts",
	ATPGSATCalls:         "atpg_sat_calls",
	ATPGSATReused:        "atpg_sat_reused",
	ATPGSATConflicts:     "atpg_sat_conflicts",
	ATPGPodemProofs:      "atpg_podem_proofs",
}

// Gauge identifies one instantaneous metric.
type Gauge int

// Gauges recorded by the library layers.
const (
	// RestartsSinceImprove mirrors the CALLS_1 patience counter.
	RestartsSinceImprove Gauge = iota
	// IndistPairs is the current best indistinguished-pair count — the
	// distinguished-pair trajectory is IndistFull-complement of this.
	IndistPairs

	numGauges
)

var gaugeNames = [numGauges]string{
	RestartsSinceImprove: "restarts_since_improve",
	IndistPairs:          "indist_pairs",
}

// Hist identifies one power-of-two-bucket histogram.
type Hist int

// Histograms recorded by the library layers.
const (
	// RestartIndist is the distribution of per-restart Procedure 1
	// scores (indistinguished pairs per folded restart).
	RestartIndist Hist = iota
	// RowElapsedMs is the distribution of sweep-row wall times in
	// milliseconds.
	RowElapsedMs
	// DiagnoseUs is the distribution of per-item diagnosis times
	// (signature + match/rank) in microseconds, recorded by the service.
	DiagnoseUs
	// RequestUs is the distribution of end-to-end request latencies in
	// microseconds, recorded client-side by sddload (including retries).
	RequestUs
	// RecallUs is the distribution of case-store recall-step times in
	// microseconds (index lookup + near scan + guard), recorded by the
	// service for every observation when a case store is attached.
	RecallUs

	numHists
)

var histNames = [numHists]string{
	RestartIndist: "restart_indist",
	RowElapsedMs:  "row_elapsed_ms",
	DiagnoseUs:    "diagnose_us",
	RequestUs:     "request_us",
	RecallUs:      "recall_us",
}

// histBuckets is one bucket per power of two: bucket b holds values v
// with bits.Len64(v) == b, i.e. bucket 0 holds 0, bucket b>0 holds
// [2^(b-1), 2^b). Negative values clamp to bucket 0.
const histBuckets = 65

type histogram struct {
	buckets [histBuckets]atomic.Int64
	// sum accumulates the observed values (negatives clamp to 0, like
	// their bucket), so exposition formats that want a running total
	// (OpenMetrics `_sum`) need no second bookkeeping pass.
	sum atomic.Int64
}

// Metrics is a fixed registry of atomic instruments. The zero value is
// ready to use; all methods are safe on a nil receiver (and do nothing),
// so library code can record unconditionally.
type Metrics struct {
	counters [numCounters]atomic.Int64
	gauges   [numGauges]atomic.Int64
	hists    [numHists]histogram
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Inc adds 1 to counter c.
func (m *Metrics) Inc(c Counter) { m.Add(c, 1) }

// Add adds d to counter c.
func (m *Metrics) Add(c Counter, d int64) {
	if m == nil {
		return
	}
	m.counters[c].Add(d)
}

// Counter returns the current value of c (0 on nil).
func (m *Metrics) Counter(c Counter) int64 {
	if m == nil {
		return 0
	}
	return m.counters[c].Load()
}

// Set stores v into gauge g.
func (m *Metrics) Set(g Gauge, v int64) {
	if m == nil {
		return
	}
	m.gauges[g].Store(v)
}

// Gauge returns the current value of g (0 on nil).
func (m *Metrics) Gauge(g Gauge) int64 {
	if m == nil {
		return 0
	}
	return m.gauges[g].Load()
}

// Observe records v into histogram h.
func (m *Metrics) Observe(h Hist, v int64) {
	if m == nil {
		return
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
		m.hists[h].sum.Add(v)
	}
	m.hists[h].buckets[b].Add(1)
}

// Merge adds o's counters and histogram buckets into m. Gauges are
// instantaneous and are not merged. Used to roll per-row scoped metrics
// up into a sweep-level registry at the ordered delivery point.
func (m *Metrics) Merge(o *Metrics) {
	if m == nil || o == nil {
		return
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := o.counters[c].Load(); v != 0 {
			m.counters[c].Add(v)
		}
	}
	for h := Hist(0); h < numHists; h++ {
		for b := 0; b < histBuckets; b++ {
			if v := o.hists[h].buckets[b].Load(); v != 0 {
				m.hists[h].buckets[b].Add(v)
			}
		}
		if v := o.hists[h].sum.Load(); v != 0 {
			m.hists[h].sum.Add(v)
		}
	}
}

// HistBucket is one non-empty histogram bucket: N values in [Lo, Hi].
type HistBucket struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// HistSnapshot is the state of one histogram.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a metrics registry, serializable
// as JSON (-metrics-out) and printable as a report section. Map keys
// are the stable metric names; encoding/json emits them sorted.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the current instrument values. On a nil receiver it
// returns an empty (but fully initialized) snapshot.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64, numCounters),
		Gauges:     make(map[string]int64, numGauges),
		Histograms: make(map[string]HistSnapshot, numHists),
	}
	if m == nil {
		return s
	}
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[counterNames[c]] = m.counters[c].Load()
	}
	for g := Gauge(0); g < numGauges; g++ {
		s.Gauges[gaugeNames[g]] = m.gauges[g].Load()
	}
	for h := Hist(0); h < numHists; h++ {
		hs := HistSnapshot{Sum: m.hists[h].sum.Load()}
		for b := 0; b < histBuckets; b++ {
			n := m.hists[h].buckets[b].Load()
			if n == 0 {
				continue
			}
			lo, hi := int64(0), int64(0)
			if b > 0 {
				lo = int64(1) << (b - 1)
				hi = lo<<1 - 1
			}
			hs.Count += n
			hs.Buckets = append(hs.Buckets, HistBucket{Lo: lo, Hi: hi, N: n})
		}
		s.Histograms[histNames[h]] = hs
	}
	return s
}

// WriteText renders the snapshot as the human-readable section the
// commands append to their final report: one sorted key=value line for
// counters and gauges, one summary line per non-empty histogram.
func (s Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "observability metrics:"); err != nil {
		return err
	}
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "  %s = %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "  %s = %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for h := Hist(0); h < numHists; h++ {
		hs, ok := s.Histograms[histNames[h]]
		if !ok || hs.Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %s: %d samples in %d buckets (range [%d,%d])\n",
			histNames[h], hs.Count, len(hs.Buckets),
			hs.Buckets[0].Lo, hs.Buckets[len(hs.Buckets)-1].Hi); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: the key sets are tiny and fixed.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Observer bundles the three observability sinks the library layers
// thread through their options. All methods are safe on a nil receiver
// and on nil fields, so instrumentation sites need no guards. A nil
// Observer is "observability off".
type Observer struct {
	Metrics  *Metrics
	Trace    *Tracer
	Progress *Progress
	// Label, when non-empty, is attached to every trace event as the
	// "row" field; sweep drivers label per-row scopes with it so
	// interleaved events stay attributable.
	Label string
}

// M returns the observer's metrics registry (nil when unobserved);
// Metrics methods tolerate nil, so `o.M().Inc(...)` is always safe.
func (o *Observer) M() *Metrics {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Emit records one trace event. No-op without a tracer.
func (o *Observer) Emit(typ string, fields map[string]any) {
	if o == nil || o.Trace == nil {
		return
	}
	if o.Label != "" {
		if fields == nil {
			fields = map[string]any{}
		}
		fields["row"] = o.Label
	}
	o.Trace.Emit(typ, fields)
}

// Tracing reports whether trace events would be recorded; expensive
// field assembly can be skipped when false.
func (o *Observer) Tracing() bool { return o != nil && o.Trace != nil }

// Tick gives the progress reporter a chance to print. Instrumentation
// sites call it from their ordered fold points; it is cheap when the
// reporting interval has not elapsed.
func (o *Observer) Tick() {
	if o == nil || o.Progress == nil {
		return
	}
	o.Progress.Tick()
}

// Scoped returns a child observer with a fresh metrics registry but the
// parent's trace, progress reporter and the given label — the per-row
// scope a sweep hands each pipeline so row metrics do not interleave.
// Scoped on nil returns nil.
func (o *Observer) Scoped(label string) *Observer {
	if o == nil {
		return nil
	}
	return &Observer{Metrics: NewMetrics(), Trace: o.Trace, Progress: o.Progress, Label: label}
}
