package atpg

import (
	"context"
	"math/rand"

	"sddict/internal/fault"
	"sddict/internal/netlist"
	"sddict/internal/par"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// Config controls detection test-set generation.
type Config struct {
	// Seed drives random patterns and PODEM diversification.
	Seed int64
	// NDetect is the number of distinct tests that must detect each fault
	// (1 for a plain detection set, 10 for the paper's 10-detection sets).
	NDetect int
	// BacktrackLimit is the per-fault PODEM backtrack budget.
	BacktrackLimit int
	// UselessBatchLimit stops the random phase after this many consecutive
	// batches that contributed no kept pattern.
	UselessBatchLimit int
	// Compact runs reverse-order fault-simulation compaction on the result
	// (only meaningful for NDetect == 1).
	Compact bool
	// SATConflictBudget enables a SAT detection-miter fallback for faults
	// PODEM abandons: within the budget every such fault is either given a
	// test or proven redundant. 0 disables the fallback.
	SATConflictBudget int64
}

// maxRandomBatches caps the 64-pattern random batches of every random
// phase: detection's, and diagnostic generation's opening and closing ones.
const maxRandomBatches = 400

// topUpRounds bounds the deterministic top-up sweeps of detection.
const topUpRounds = 6

// DefaultConfig returns a reasonable configuration for n-detection
// generation.
func DefaultConfig(nDetect int) Config {
	return Config{
		NDetect:           nDetect,
		BacktrackLimit:    300,
		UselessBatchLimit: 8,
		SATConflictBudget: 5000,
	}
}

// GenStats reports how a test set was produced.
type GenStats struct {
	RandomTests int // tests kept from the random phase
	PodemTests  int // tests added by deterministic top-up
	Untestable  int // faults proven redundant
	Aborted     int // faults abandoned at the backtrack limit
	Detected    int // faults detected at least once
	NDetected   int // faults detected at least NDetect times
	Faults      int // faults targeted
	// PodemAborts counts PODEM runs stopped at the backtrack limit,
	// including those the SAT fallback then settled.
	PodemAborts int
	// SATCalls counts SAT fallback calls.
	SATCalls int
	// ModelMismatches counts SAT models that failed re-simulation on the
	// circuit; each was treated as Aborted. It stays 0 unless the solver
	// or the miter encoding is wrong.
	ModelMismatches int
	// SATConflicts sums the solver conflicts of every SAT fallback call, a
	// deterministic measure of the SAT work.
	SATConflicts int64
	// Verdicts holds, per fault, how detection settled it when no test
	// did. Passed to GenerateDiagnosticCtx, they spare its redundancy
	// screening the same work.
	Verdicts []Verdict
	// Interrupted is set when generation stopped early on context
	// cancellation or deadline; the returned test set is valid but may
	// leave faults short of their detection targets.
	Interrupted bool
}

// VerdictKind names how detection settled a fault no test detects.
type VerdictKind uint8

// Detection verdicts.
const (
	// NoVerdict: a test detects the fault, or no search settled it.
	NoVerdict VerdictKind = iota
	// PodemUntestable: PODEM exhausted the fault's decision space, which
	// proves the fault redundant.
	PodemUntestable
	// SATUntestable: the SAT fallback found the detection miter
	// unsatisfiable, which proves the fault redundant.
	SATUntestable
	// SATUnknown: the SAT fallback ran out of its conflict budget.
	SATUnknown
)

// Verdict is detection's verdict on one fault.
type Verdict struct {
	Kind VerdictKind
	// Conflicts is the SAT fallback's conflict count at its answer (SAT
	// kinds only).
	Conflicts int64
}

// Coverage returns the single-detection fault coverage over the targeted
// faults.
func (s GenStats) Coverage() float64 {
	if s.Faults == 0 {
		return 0
	}
	return float64(s.Detected) / float64(s.Faults)
}

// GenerateDetectionCtx builds an n-detection test set for the given
// faults on a combinational circuit: a random-pattern phase keeps patterns
// that give some fault a still-needed detection, then PODEM tops up the
// faults left short. Untestable faults are excluded from the targets once
// proven redundant. The context is honoured at batch, fault and
// PODEM-decision granularity. On cancellation it degrades gracefully: the
// tests kept so far are returned (every one of them earned its place by
// detecting some fault) with GenStats.Interrupted set.
func GenerateDetectionCtx(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, cfg Config) (*pattern.Set, GenStats) {
	if cfg.NDetect < 1 {
		cfg.NDetect = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	view := netlist.NewScanView(c)
	s := sim.New(view)
	width := view.NumInputs()
	tests := pattern.NewSet(width)
	stats := GenStats{Faults: len(faults), Verdicts: make([]Verdict, len(faults))}

	counts := make([]int, len(faults))
	dead := make([]bool, len(faults)) // untestable or given up
	active := func() []int {
		var a []int
		for i := range faults {
			if !dead[i] && counts[i] < cfg.NDetect {
				a = append(a, i)
			}
		}
		return a
	}
	// simulateCandidates fault-simulates a candidate batch and appends the
	// patterns that supply a needed detection, updating counts.
	detWords := make([]uint64, len(faults))
	var sw sim.Sweep
	var sub []fault.Fault
	seq := par.New(1)
	simulateCandidates := func(cand []pattern.Vector) int {
		set := pattern.NewSet(width)
		for _, v := range cand {
			set.Add(v)
		}
		batch := set.Pack()[0]
		s.Apply(&batch)
		act := active()
		sub = sub[:0]
		for _, fi := range act {
			sub = append(sub, faults[fi])
		}
		if err := sw.Run(ctx, seq, s, sub); err != nil {
			// Cancelled mid-batch: keep none of it.
			stats.Interrupted = true
			return 0
		}
		for li, fi := range act {
			detWords[fi] = sw.Detect(li)
		}
		kept := 0
		for p := 0; p < batch.Count; p++ {
			bit := uint64(1) << uint(p)
			useful := false
			for _, fi := range act {
				if detWords[fi]&bit != 0 && counts[fi] < cfg.NDetect {
					useful = true
					break
				}
			}
			if !useful {
				continue
			}
			tests.Add(cand[p])
			kept++
			for _, fi := range act {
				if detWords[fi]&bit != 0 {
					counts[fi]++
				}
			}
		}
		return kept
	}

	// Random phase.
	useless := 0
	for b := 0; b < maxRandomBatches && useless < cfg.UselessBatchLimit; b++ {
		if ctx.Err() != nil {
			stats.Interrupted = true
			break
		}
		if len(active()) == 0 {
			break
		}
		cand := make([]pattern.Vector, 64)
		for i := range cand {
			cand[i] = pattern.Random(r, width)
		}
		if kept := simulateCandidates(cand); kept == 0 {
			useless++
		} else {
			useless = 0
			stats.RandomTests += kept
		}
	}

	// Deterministic top-up.
	eng := NewEngine(c)
	eng.BacktrackLimit = cfg.BacktrackLimit
	eng.Randomize(r)
	eng.SetContext(ctx)
	ms := newMiterSolver(c)
	abortTries := make([]int, len(faults))
	seen := make(map[string]bool, tests.Len())
	for _, v := range tests.Vecs {
		seen[v.Key()] = true
	}
	for round := 0; round < topUpRounds; round++ {
		pending := active()
		if len(pending) == 0 {
			break
		}
		progress := false
		for _, fi := range pending {
			if ctx.Err() != nil {
				stats.Interrupted = true
				break
			}
			if counts[fi] >= cfg.NDetect || dead[fi] {
				continue
			}
			cube, status := eng.Generate(faults[fi])
			if ctx.Err() != nil {
				// Generate gave up on the interrupt, not at the backtrack
				// limit: the run is neither an abort nor a reason for SAT.
				stats.Interrupted = true
				break
			}
			if status == Aborted {
				stats.PodemAborts++
			}
			if status == Untestable {
				stats.Verdicts[fi] = Verdict{Kind: PodemUntestable}
			}
			if status == Aborted && abortTries[fi] >= 1 && cfg.SATConflictBudget > 0 {
				// Second structural abort: escalate to the complete SAT
				// procedure on the detection miter.
				v, sstatus, conflicts, mismatch := ms.detect(faults[fi], cfg.SATConflictBudget)
				cube, status = v, sstatus
				stats.SATCalls++
				stats.SATConflicts += conflicts
				if mismatch {
					stats.ModelMismatches++
				}
				switch {
				case sstatus == Untestable:
					stats.Verdicts[fi] = Verdict{Kind: SATUntestable, Conflicts: conflicts}
				case sstatus == Aborted && !mismatch:
					stats.Verdicts[fi] = Verdict{Kind: SATUnknown, Conflicts: conflicts}
				}
			}
			switch status {
			case Untestable:
				dead[fi] = true
				stats.Untestable++
				progress = true
				continue
			case Aborted:
				abortTries[fi]++
				if abortTries[fi] >= 2 {
					dead[fi] = true
					stats.Aborted++
				}
				progress = true // state advanced toward giving up
				continue
			}
			need := cfg.NDetect - counts[fi]
			var fills []pattern.Vector
			for attempt := 0; attempt < 4*need && len(fills) < need; attempt++ {
				v := cube.Clone()
				v.RandomFill(r)
				if k := v.Key(); !seen[k] {
					seen[k] = true
					fills = append(fills, v)
				}
			}
			if len(fills) == 0 {
				// The cube's fills are all already in the set, yet the
				// fault is short on detections: the cube must overlap
				// existing tests that detect other faults. Count it dead to
				// avoid spinning.
				dead[fi] = true
				stats.Aborted++
				continue
			}
			if kept := simulateCandidates(fills); kept > 0 {
				stats.PodemTests += kept
				progress = true
			}
		}
		if !progress || stats.Interrupted {
			break
		}
	}

	// Compaction is an optimization, not a correctness step: skip it when
	// already interrupted rather than start more fault simulation.
	if cfg.Compact && cfg.NDetect == 1 && !stats.Interrupted && ctx.Err() == nil {
		if compacted, err := Compact(ctx, view, faults, tests); err == nil {
			tests = compacted
		} else {
			stats.Interrupted = true
		}
	}
	for i := range faults {
		if counts[i] > 0 {
			stats.Detected++
		}
		if counts[i] >= cfg.NDetect {
			stats.NDetected++
		}
	}
	return tests, stats
}

// Compact performs reverse-order fault-simulation compaction: tests are
// fault-simulated newest-first with fault dropping, and tests that detect
// no still-undetected fault are removed. The surviving tests keep their
// original relative order. Cancellation returns ctx.Err() and no set.
func Compact(ctx context.Context, view *netlist.ScanView, faults []fault.Fault, tests *pattern.Set) (*pattern.Set, error) {
	s := sim.New(view)
	var sw sim.Sweep
	seq := par.New(1)
	detected := make([]bool, len(faults))
	keep := make([]bool, tests.Len())
	live := make([]int, 0, len(faults))
	sub := make([]fault.Fault, 0, len(faults))

	// Walk 64-test windows from the end; within a window, examine patterns
	// from the highest index down.
	for start := ((tests.Len() - 1) / 64) * 64; start >= 0; start -= 64 {
		end := start + 64
		if end > tests.Len() {
			end = tests.Len()
		}
		window := pattern.NewSet(tests.Width)
		for _, v := range tests.Vecs[start:end] {
			window.Add(v)
		}
		batch := window.Pack()[0]
		s.Apply(&batch)
		live, sub = live[:0], sub[:0]
		for fi := range faults {
			if !detected[fi] {
				live = append(live, fi)
				sub = append(sub, faults[fi])
			}
		}
		if err := sw.Run(ctx, seq, s, sub); err != nil {
			return nil, err
		}
		for p := batch.Count - 1; p >= 0; p-- {
			bit := uint64(1) << uint(p)
			useful := false
			for li, fi := range live {
				if detected[fi] || sw.Detect(li)&bit == 0 {
					continue
				}
				useful = true
				detected[fi] = true
			}
			keep[start+p] = useful
		}
	}

	out := pattern.NewSet(tests.Width)
	for i, v := range tests.Vecs {
		if keep[i] {
			out.Add(v)
		}
	}
	return out, nil
}
