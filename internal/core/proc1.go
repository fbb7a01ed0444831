package core

import (
	"context"

	"sddict/internal/resp"
)

// procedure1 is the paper's Procedure 1: greedy baseline selection over the
// given test order with the LOWER early cutoff. slots is the number of
// baselines selected per test: 1 for the paper's dictionary, 2 for the
// multi-baseline extension, whose second slot is a second greedy step on
// the same test against the partition the first one refined. The result
// holds the selected baselines (indexed by test, not by order position)
// and the number of indistinguished pairs left. done is false when the run
// was cut short by ctx; the partial baselines are still a valid selection
// (unprocessed tests keep the fault-free baseline), but the pair count then
// reflects only the refinements applied so far.
//
// Per test the scan takes the detected-index or the member-scan path,
// whichever is cheaper for the current partition. Both produce
// bit-identical dist values, so the LOWER cutoff fires at the same points,
// cand_evals counts match exactly, and the selected baselines are
// unchanged (DESIGN.md §14).
//
// p and scratch are the caller's reusable state: p is reset to the
// initial partition, and scratch's buffers carry no state between tests.
func procedure1(ctx context.Context, m *resp.Matrix, order []int, lower, slots int, p *Partition, scratch *distScratch) restartResult {
	p.reset(m.N)
	res := restartResult{base: make([]int32, m.K)} // unselected tests keep the fault-free baseline
	if slots == 2 {
		res.extra = make([]int32, m.K)
	}
	for _, j := range order {
		if p.Done() {
			break
		}
		if ctx.Err() != nil {
			res.indist = p.Pairs()
			return res
		}
		res.base[j] = scratch.scanAndRefine(p, m, j, lower, &res.evals, &res.cutoffs)
		if res.extra != nil && !p.Done() {
			res.extra[j] = scratch.scanAndRefine(p, m, j, lower, &res.evals, &res.cutoffs)
		}
	}
	res.indist, res.done = p.Pairs(), true
	return res
}

// selectWithLower scans candidate classes in Z_j order (class id order) and
// applies the LOWER cutoff from Procedure 1 step 3: scanning stops after
// `lower` consecutive candidates scoring strictly below the best seen.
// lower <= 0 scans everything. Ties keep the earliest candidate. cutoffs
// counts scans the cutoff terminated early — a per-restart tally folded
// into the obs.LowerCutoffHits metric, never into the search itself.
// selectIndexed implements the same state machine over lazily computed
// dist values; the two must stay in lockstep.
func selectWithLower(dist []int64, lower int, evals, cutoffs *int64) int32 {
	best := int64(-1)
	bestIdx := int32(0)
	consec := 0
	for z := 0; z < len(dist); z++ {
		*evals++
		switch d := dist[z]; {
		case d > best:
			best, bestIdx = d, int32(z)
			consec = 0
		case d < best:
			consec++
			if lower > 0 && consec >= lower {
				*cutoffs++
				return bestIdx
			}
		}
	}
	return bestIdx
}

// distScratch holds reusable buffers for the dist scans. Each concurrent
// restart owns its own instance — nothing here may be shared between
// pool tasks.
type distScratch struct {
	cnt     []int64
	dist    []int64
	touched []int32

	// Index-scan buffers (selectIndexed/refineIndexed). zcnt and dcnt are
	// per-label counters kept all-zero between tests.
	zcnt   []int32
	dcnt   []int32
	ztouch []int32
	dtouch []int32

	// Meet-dist buffers (distMeet). bslot maps suffix labels to bucket
	// slots and is kept all −1 between calls.
	bslot  []int32
	bmem   []int32
	btouch []int32
	bsize  []int32
	bcur   []int32
}

// perClass computes, for every response class z of one test, the paper's
// dist(z): the number of indistinguished pairs that selecting z as the
// baseline would distinguish. A pair (i1,i2) of a group is distinguished
// when exactly one of the two faults has class z, so each group of size s
// with c members in class z contributes c·(s−c). The partition's
// maintained member spans make this O(live + numClasses) — isolated
// faults are never visited. The returned slice is scratch-backed and only
// valid until the next perClass call on the same scratch.
func (sc *distScratch) perClass(p *Partition, class []int32, numClasses int) []int64 {
	if cap(sc.dist) < numClasses {
		sc.dist = make([]int64, numClasses)
	}
	dist := sc.dist[:numClasses]
	for i := range dist {
		dist[i] = 0
	}
	if p.groups == 0 {
		return dist
	}
	if cap(sc.cnt) < numClasses {
		sc.cnt = make([]int64, numClasses)
	}
	cnt := sc.cnt[:numClasses]
	for _, l := range p.labs {
		s := int64(p.size[l])
		if s < 2 {
			continue
		}
		sc.touched = sc.touched[:0]
		for _, f := range p.members[p.spanLo[l]:p.spanHi[l]] {
			z := class[f]
			if cnt[z] == 0 {
				sc.touched = append(sc.touched, z)
			}
			cnt[z]++
		}
		for _, z := range sc.touched {
			dist[z] += cnt[z] * (s - cnt[z])
			cnt[z] = 0
		}
	}
	return dist
}
