package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
	"sddict/internal/resp"
)

// DiagConfig controls diagnostic test-set generation.
type DiagConfig struct {
	// Seed drives the random patterns and the fill of SAT cubes' X inputs.
	Seed int64
	// MaxRounds bounds the refine/distinguish iterations.
	MaxRounds int
	// UselessBatchLimit stops the random phase after this many consecutive
	// batches that split no group.
	UselessBatchLimit int
	// SATConflictBudget is the conflict budget of each SAT call, for
	// redundancy screening and pair distinguishing alike: within it the
	// solver either finds a test or proves the fault redundant or the pair
	// equivalent. 0 disables SAT, and every pair attempt counts as Aborted.
	SATConflictBudget int64
	// MaxSATCalls caps SAT calls per run (0 = unlimited).
	MaxSATCalls int
	// Workers bounds the fault-simulation parallelism of response capture
	// (0 = one per available CPU, 1 = sequential). The test set is
	// identical at every setting.
	Workers int
}

// pairAttemptsPerGroup caps the distinguishing attempts per response
// group per round of diagnostic generation.
const pairAttemptsPerGroup = 3

// DefaultDiagConfig returns a reasonable diagnostic-generation setup.
func DefaultDiagConfig() DiagConfig {
	return DiagConfig{
		MaxRounds:         80,
		UselessBatchLimit: 12,
		SATConflictBudget: 8000,
		MaxSATCalls:       100,
	}
}

// DiagStats reports the outcome of diagnostic test generation.
type DiagStats struct {
	BaseTests   int   // tests inherited from the detection set
	RandomTests int   // random distinguishing tests kept
	AddedTests  int   // SAT-generated detecting and distinguishing tests added
	Equivalent  int64 // fault pairs proven functionally equivalent
	Aborted     int64 // fault pairs abandoned: SAT budget-out or SAT closed
	Rounds      int
	MiterCalls  int // pair attempts, each one SAT call unless SAT is closed
	SATCalls    int // SAT calls, redundancy screening and pairs together
	// SATReused counts the screening calls answered by a carried
	// detection verdict instead of a solver run; they are included in
	// SATCalls, and the conflicts of the SAT verdicts in SATConflicts.
	SATReused int
	// PodemProofs counts the carried verdicts that were PODEM's proofs,
	// a subset of SATReused.
	PodemProofs int
	// SATConflicts sums the solver conflicts of every SAT call, a
	// deterministic measure of the SAT work.
	SATConflicts int64
	// ModelMismatches counts SAT models that failed re-simulation on the
	// circuit; each was treated as Aborted. It stays 0 unless the solver
	// or the miter encoding is wrong.
	ModelMismatches int
	// IndistPairs is the number of fault pairs left with identical full
	// responses under the final test set (the paper's "full" column).
	IndistPairs int64
	// Interrupted is set when generation stopped early on context
	// cancellation or deadline; the returned test set is valid but some
	// response-identical pairs were never targeted.
	Interrupted bool
}

// GenerateDiagnosticCtx extends a detection test set into a diagnostic
// test set: fault pairs with identical full responses under the current
// tests are targeted one at a time with SAT on the pair's miter (a test
// driving the two-faulty-copy miter output to 1 distinguishes the pair),
// until every remaining pair is proven equivalent or exceeds the effort
// budget. The context is honoured at batch and pair granularity. On
// cancellation it degrades gracefully: the distinguishing tests added so
// far are kept and the base detection set is never lost;
// DiagStats.Interrupted is set.
//
// verdicts, when non-nil, is GenStats.Verdicts from the detection run
// that produced base on the same circuit and fault list. Redundancy
// screening takes a carried verdict instead of calling SAT, and counts it
// as a SAT call (SATCalls, SATReused), so the call cap and the budget-out
// stop close SAT at the same points as without verdicts. A screening call
// would build the same miter as detection's SAT fallback and run the same
// deterministic search, which the budget B = cfg.SATConflictBudget only
// stops, so detection's answer after c conflicts gives the call's:
//   - SATUntestable with c ≤ B: the same UNSAT after c conflicts;
//   - SATUnknown with B < c: the search passed conflict B+1 unanswered,
//     so the call runs out of budget there, after B+1 conflicts.
//
// The test set and every stat except SATReused are then as without the
// verdict. A PodemUntestable verdict is taken always (PodemProofs counts
// these) and adds no conflicts. The fault is redundant, so a screening
// call could only prove it so or run out of budget; the test set differs
// from the one without the verdict only where it would have run out.
//
// The closing random phase is skipped when every pair still sharing a
// response group is proven equivalent: such faults respond identically
// to every pattern, so no random test could split them.
//
// The returned matrix is the response matrix of faults under base, which
// the returned test set extends by appending only: the capture of the
// final set needs to simulate just the appended tests (Matrix.Append).
// It is nil when cancellation stopped that first capture.
func GenerateDiagnosticCtx(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, base *pattern.Set, verdicts []Verdict, cfg DiagConfig) (*pattern.Set, *resp.Matrix, DiagStats) {
	if verdicts != nil && len(verdicts) != len(faults) {
		panic(fmt.Sprintf("atpg: %d carried verdicts for %d faults", len(verdicts), len(faults)))
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	view := netlist.NewScanView(c)
	tests := base.Clone()
	stats := DiagStats{BaseTests: base.Len()}

	// Partition faults by full response under the current tests, and track
	// which faults the base tests detect at all. If even this initial
	// simulation is cancelled the partition is meaningless, so return the
	// base set unchanged.
	p := core.NewPartition(len(faults))
	detected := make([]bool, len(faults))
	baseM, err := resp.BuildObsCtx(ctx, cfg.Workers, view, faults, tests, nil)
	if err != nil {
		stats.Interrupted = true
		return tests, nil, stats
	}
	for j := 0; j < baseM.K; j++ {
		p.RefineByClass(baseM.Class[j])
		for i := 0; i < baseM.N; i++ {
			if baseM.Class[j][i] != 0 {
				detected[i] = true
			}
		}
	}

	// build captures the responses of sub under set at the configured
	// worker count. It returns nil, and marks the run interrupted, if the
	// context is cancelled first.
	build := func(sub []fault.Fault, set *pattern.Set) *resp.Matrix {
		m, err := resp.BuildObsCtx(ctx, cfg.Workers, view, sub, set, nil)
		if err != nil {
			stats.Interrupted = true
			return nil
		}
		return m
	}

	// refineWith refines the partition by new tests, fault-simulating only
	// the faults still sharing a group: isolated faults can never rejoin a
	// group, so their responses are irrelevant — this keeps late rounds
	// cheap when only a handful of groups survive.
	refineWith := func(newTests *pattern.Set) {
		if newTests.Len() == 0 {
			return
		}
		var live []int32
		for i := 0; i < p.Len(); i++ {
			if p.Label(i) != core.Isolated {
				live = append(live, int32(i))
			}
		}
		if len(live) == 0 {
			return
		}
		sub := make([]fault.Fault, len(live))
		for li, fi := range live {
			sub[li] = faults[fi]
		}
		m := build(sub, newTests)
		if m == nil {
			return
		}
		row := make([]int32, len(faults))
		for j := 0; j < m.K; j++ {
			for li, fi := range live {
				row[fi] = m.Class[j][li]
			}
			p.RefineByClass(row)
		}
	}

	type pairKey struct{ a, b int32 }
	// unresolvable holds the pairs no longer attempted: true for a pair
	// proven equivalent, false for one abandoned.
	unresolvable := make(map[pairKey]bool)
	seen := make(map[string]bool, tests.Len())
	for _, v := range tests.Vecs {
		seen[v.Key()] = true
	}
	mkKey := func(a, b int32) pairKey {
		if a > b {
			a, b = b, a
		}
		return pairKey{a, b}
	}

	// satOpen reports whether SAT may still be called: it is enabled, under
	// its call cap, and not closed by 5 consecutive budget-outs (the
	// circuit's proofs are too hard for the budget).
	satUseless := 0
	satOpen := func() bool {
		return cfg.SATConflictBudget > 0 && satUseless < 5 &&
			(cfg.MaxSATCalls == 0 || stats.SATCalls < cfg.MaxSATCalls)
	}

	// randomPhase keeps random patterns that split any live response
	// group; it resolves easy pairs far more cheaply than SAT. It runs
	// before the pair rounds and once more after them (the remaining
	// groups are small by then, so late random luck is cheap to harvest).
	randomPhase := func(patience int) {
		useless := 0
		row := make([]int32, len(faults))
		for b := 0; b < maxRandomBatches && useless < patience && p.Pairs() > 0; b++ {
			if ctx.Err() != nil {
				stats.Interrupted = true
				return
			}
			// Simulate only faults still sharing a group.
			var live []int32
			for i := 0; i < p.Len(); i++ {
				if p.Label(i) != core.Isolated {
					live = append(live, int32(i))
				}
			}
			if len(live) == 0 {
				return
			}
			sub := make([]fault.Fault, len(live))
			for li, fi := range live {
				sub[li] = faults[fi]
			}
			cand := pattern.NewSet(tests.Width)
			for i := 0; i < 64; i++ {
				cand.Add(pattern.Random(r, tests.Width))
			}
			m := build(sub, cand)
			if m == nil {
				return
			}
			kept := 0
			for j := 0; j < m.K; j++ {
				for li, fi := range live {
					row[fi] = m.Class[j][li]
				}
				if removed := p.RefineByClass(row); removed > 0 {
					v := cand.Vecs[j]
					if k := v.Key(); !seen[k] {
						seen[k] = true
						tests.Add(v)
						kept++
					}
				}
			}
			if kept == 0 {
				useless++
			} else {
				useless = 0
				stats.RandomTests += kept
			}
		}
	}
	randomPhase(cfg.UselessBatchLimit)

	// Redundancy screening: faults no test has detected are either hard or
	// genuinely untestable. One SAT call on the detection miter settles
	// each: UNSAT proves the fault redundant — and since redundant faults
	// always produce the fault-free response, every pair of them is
	// functionally equivalent, which removes those pairs from the pair
	// workload wholesale. A SAT answer instead contributes a fresh
	// detecting (hence group-splitting) test.
	redundant := make([]bool, len(faults))
	var ms *miterSolver
	if cfg.SATConflictBudget > 0 {
		ms = newMiterSolver(c)
		fresh := pattern.NewSet(tests.Width)
		for i := range faults {
			if ctx.Err() != nil {
				stats.Interrupted = true
				break
			}
			if detected[i] || p.Label(i) == core.Isolated {
				continue
			}
			if !satOpen() {
				break
			}
			if verdicts != nil {
				switch v := verdicts[i]; {
				case v.Kind == PodemUntestable, v.Kind == SATUntestable && v.Conflicts <= cfg.SATConflictBudget:
					stats.SATCalls++
					stats.SATReused++
					if v.Kind == PodemUntestable {
						stats.PodemProofs++
					}
					stats.SATConflicts += v.Conflicts
					redundant[i] = true
					satUseless = 0
					continue
				case v.Kind == SATUnknown && cfg.SATConflictBudget < v.Conflicts:
					stats.SATCalls++
					stats.SATReused++
					stats.SATConflicts += cfg.SATConflictBudget + 1
					satUseless++
					continue
				}
			}
			stats.SATCalls++
			v, status, conflicts, mismatch := ms.detect(faults[i], cfg.SATConflictBudget)
			stats.SATConflicts += conflicts
			if mismatch {
				stats.ModelMismatches++
			}
			switch status {
			case Untestable:
				redundant[i] = true
				satUseless = 0
			case Success:
				satUseless = 0
				v = v.Clone()
				v.RandomFill(r)
				if k := v.Key(); !seen[k] {
					seen[k] = true
					fresh.Add(v)
					tests.Add(v)
				}
			default:
				satUseless++
			}
		}
		refineWith(fresh)
		stats.AddedTests += fresh.Len()
	}

	for round := 0; round < cfg.MaxRounds && !stats.Interrupted; round++ {
		if ctx.Err() != nil {
			stats.Interrupted = true
			break
		}
		stats.Rounds = round + 1
		groups := groupMembers(p)
		added := pattern.NewSet(tests.Width)
		attemptedAny := false
		for _, members := range groups {
			attempts := 0
			// Try pairs within the group until one succeeds or the budget
			// for this group is spent.
		pairLoop:
			for ai := 0; ai < len(members) && attempts < pairAttemptsPerGroup; ai++ {
				for bi := ai + 1; bi < len(members) && attempts < pairAttemptsPerGroup; bi++ {
					a, b := members[ai], members[bi]
					if _, done := unresolvable[mkKey(a, b)]; done {
						continue
					}
					if redundant[a] && redundant[b] {
						// Two proven-redundant faults both behave exactly
						// like the fault-free circuit: equivalent.
						unresolvable[mkKey(a, b)] = true
						stats.Equivalent++
						continue
					}
					if ctx.Err() != nil {
						stats.Interrupted = true
						break pairLoop
					}
					attempts++
					attemptedAny = true
					stats.MiterCalls++
					cube, status := pattern.Vector(nil), Aborted
					if satOpen() {
						v, sstatus, conflicts, mismatch := ms.distinguish(faults[a], faults[b], cfg.SATConflictBudget)
						stats.SATCalls++
						stats.SATConflicts += conflicts
						if mismatch {
							stats.ModelMismatches++
						}
						if sstatus == Aborted {
							satUseless++
						} else {
							satUseless = 0
						}
						cube, status = v, sstatus
					}
					switch status {
					case Success:
						v := cube.Clone()
						v.RandomFill(r)
						if k := v.Key(); !seen[k] {
							seen[k] = true
							added.Add(v)
						}
						break pairLoop
					case Untestable:
						unresolvable[mkKey(a, b)] = true
						stats.Equivalent++
					default: // Aborted
						unresolvable[mkKey(a, b)] = false
						stats.Aborted++
					}
				}
			}
		}
		if added.Len() == 0 {
			if !attemptedAny {
				break // every remaining pair is marked unresolvable
			}
			continue
		}
		added.Dedup()
		for _, v := range added.Vecs {
			tests.Add(v)
		}
		refineWith(added)
		stats.AddedTests += added.Len()
	}
	// allProven reports whether every pair still sharing a group is
	// proven equivalent, leaving the closing random phase nothing to split.
	allProven := func() bool {
		for _, members := range groupMembers(p) {
			for ai, a := range members {
				for _, b := range members[ai+1:] {
					if !unresolvable[mkKey(a, b)] {
						return false
					}
				}
			}
		}
		return true
	}
	if !allProven() {
		randomPhase(4 * cfg.UselessBatchLimit)
	}
	stats.IndistPairs = p.Pairs()
	return tests, baseM, stats
}

// groupMembers lists the members of every live group of p.
func groupMembers(p *core.Partition) [][]int32 {
	byLabel := make(map[int32][]int32)
	for i := 0; i < p.Len(); i++ {
		if l := p.Label(i); l != core.Isolated {
			byLabel[l] = append(byLabel[l], int32(i))
		}
	}
	groups := make([][]int32, 0, len(byLabel))
	for _, m := range byLabel {
		groups = append(groups, m)
	}
	// Deterministic order: by smallest member (map iteration is random).
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}
