package core

import (
	"slices"

	"sddict/internal/resp"
)

// This file is the detected-fault-index side of the scan engine
// (DESIGN.md §14). Besides its class row, every test has one derived
// view, resp.ClassIndex: the list of its detected faults grouped by
// response class. One walk of that list yields each group's
// detected-member count, from which class 0 — the bulk of each test's
// faults — scores by complement (c₀ = s − detected-in-group), while the
// nonzero classes are scored lazily from their own segments as the LOWER
// scan reaches them. That makes the dist scan O(detected + evals) per test, independent of
// how many faults are still live, which is the dominant regime of a
// restart: most tests detect a few percent of the faults while most
// faults still sit in live groups. Both scan paths (member scan, index
// scan) compute the exact per-group class counts, so dist is
// bit-identical and the path choice never perturbs the LOWER cutoff or
// any artifact.

// scanAndRefine runs one step of Procedure 1 on test j: pick the baseline
// under the LOWER cutoff and refine the partition by it. Per test it
// takes the index scan or the member scan, whichever the detected-list
// size says is cheaper — both produce bit-identical dist values, so
// cand_evals, the cutoff points, and the selected baselines match the
// reference member scan exactly.
func (sc *distScratch) scanAndRefine(p *Partition, m *resp.Matrix, j, lower int, evals, cutoffs *int64) int32 {
	p.compactLabs()
	ci := m.ClassIndex(j)
	// The member scan pays live work twice (perClass count plus the
	// refinement re-count) and zeroes a full dist array, so the index path
	// wins well past the point where the detected list outgrows the live
	// count. The choice is a pure function of deterministic state, and
	// both paths give bit-identical dist.
	if len(ci.DetectedList()) < 8*p.live {
		best := sc.selectIndexed(p, ci, m.NumClasses(j), lower, evals, cutoffs)
		sc.refineIndexed(p, ci, m.Class[j], best)
		return best
	}
	dist := sc.perClass(p, m.Class[j], m.NumClasses(j))
	best := selectWithLower(dist, lower, evals, cutoffs)
	p.RefineByBaseline(m.Class[j], best)
	return best
}

// ensureIndexBufs sizes the per-label counters to the partition's label
// bound. The bound is fixed per restart, so this allocates at most once
// per restart; both counters rely on the all-zero-between-tests invariant
// (fresh allocations are zeroed, every use resets what it touched).
func (sc *distScratch) ensureIndexBufs(p *Partition) {
	if cap(sc.zcnt) < p.labCap {
		sc.zcnt = make([]int32, p.labCap)
		sc.dcnt = make([]int32, p.labCap)
	}
	sc.zcnt = sc.zcnt[:cap(sc.zcnt)]
	sc.dcnt = sc.dcnt[:cap(sc.dcnt)]
}

// selectIndexed runs the LOWER scan from the detected-fault index. Phase
// 1 walks the index once, counting each group's detected members. Phase 2
// replays selectWithLower's exact state machine: class 0 scores from the
// complement counts, and each nonzero class scores from its own index
// segment only when the scan reaches it — classes past the cutoff are
// never grouped at all.
func (sc *distScratch) selectIndexed(p *Partition, ci resp.ClassIndex, numClasses, lower int, evals, cutoffs *int64) int32 {
	sc.ensureIndexBufs(p)
	lab, size := p.lab, p.size
	dcnt, dtouch := sc.dcnt, sc.dtouch[:0]
	// d0 is dist(0), accumulated incrementally: raising a group's detected
	// count from c to c+1 changes its term (s−c)·c to (s−c−1)·(c+1), a
	// delta of s−2c−1. The telescoped sum is exactly Σ (s−dl)·dl — integer
	// arithmetic, so bit-identical to the two-pass computation.
	var d0 int64
	for _, f := range ci.DetectedList() {
		l := lab[f]
		if l < 0 {
			continue
		}
		c := dcnt[l]
		if c == 0 {
			dtouch = append(dtouch, l)
		}
		dcnt[l] = c + 1
		d0 += int64(size[l]) - 2*int64(c) - 1
	}

	zcnt, ztouch := sc.zcnt, sc.ztouch[:0]
	best := int64(-1)
	bestIdx := int32(0)
	consec := 0
scan:
	for z := 0; z < numClasses; z++ {
		*evals++
		var d int64
		if z == 0 {
			d = d0
		} else {
			for _, f := range ci.ClassList(int32(z)) {
				l := lab[f]
				if l < 0 {
					continue
				}
				if zcnt[l] == 0 {
					ztouch = append(ztouch, l)
				}
				zcnt[l]++
			}
			for _, l := range ztouch {
				c, s := int64(zcnt[l]), int64(size[l])
				zcnt[l] = 0
				d += c * (s - c)
			}
			ztouch = ztouch[:0]
		}
		switch {
		case d > best:
			best, bestIdx = d, int32(z)
			consec = 0
		case d < best:
			consec++
			if lower > 0 && consec >= lower {
				*cutoffs++
				break scan
			}
		}
	}
	sc.ztouch, sc.dtouch = ztouch, dtouch
	return bestIdx
}

// refineIndexed refines by the baseline selectIndexed chose, touching
// only matching members instead of whole spans: each matching member is
// swapped (via the pos index) to its side of the span, then finishSplit
// applies the label rules per split group in ascending label order —
// reproducing the reference numbering. When the split groups' spans are
// shorter than the index segment, it probes the class row over those
// spans instead. Groups the baseline does not split cost nothing beyond
// their count check. Finishes by resetting the phase-1 counters,
// restoring the scratch invariant.
func (sc *distScratch) refineIndexed(p *Partition, ci resp.ClassIndex, class []int32, best int32) {
	lab := p.lab
	members, pos := p.members, p.pos
	dcnt, zcnt := sc.dcnt, sc.zcnt
	wl := sc.ztouch[:0]
	if best == 0 {
		// Class-0 members are the match side (fresh label, back of span);
		// the detected members — the only ones listed in the index — move
		// to the front instead. Build the split worklist from the touched
		// groups, stashing each group's match count in zcnt; groups the
		// baseline does not split reset here and are skipped below.
		spanTotal := 0
		for _, l := range sc.dtouch {
			d := dcnt[l]
			if d == p.size[l] {
				dcnt[l] = 0
				continue
			}
			zcnt[l] = p.size[l] - d
			spanTotal += int(p.size[l])
			wl = append(wl, l)
		}
		slices.Sort(wl)
		if spanTotal < len(ci.DetectedList()) {
			// Walking the split spans with class-row probes is cheaper
			// than re-walking the full detected list. Both orderings
			// produce the same member sets per side, and member order
			// within a span is free (DESIGN.md §14), so the per-test
			// choice affects cost only.
			for _, l := range wl {
				c := zcnt[l]
				zcnt[l] = 0
				p.splitByClass(l, c, class, 0)
			}
			wl = wl[:0]
		} else {
			// Move pass: dcnt counts down so slot spanLo+dcnt−1 fills the
			// front of the span and the counter self-resets to zero.
			spanLo := p.spanLo
			for _, f := range ci.DetectedList() {
				l := lab[f]
				if l < 0 || dcnt[l] == 0 {
					continue
				}
				k := spanLo[l] + dcnt[l] - 1
				dcnt[l]--
				q := pos[f]
				of := members[k]
				members[k], members[q] = f, of
				pos[f], pos[of] = k, q
			}
			for _, l := range wl {
				c := zcnt[l]
				zcnt[l] = 0
				p.finishSplit(l, c)
			}
		}
	} else {
		seg := ci.ClassList(best)
		for _, f := range seg {
			l := lab[f]
			if l < 0 {
				continue
			}
			if zcnt[l] == 0 {
				wl = append(wl, l)
			}
			zcnt[l]++
		}
		// As above with the sides swapped: matches move to the back, with
		// their counts stashed in dcnt (overwriting the phase-1 counts,
		// which are no longer needed) and zcnt as the count-down cursor.
		spanTotal := 0
		w := 0
		for _, l := range wl {
			c := zcnt[l]
			if c == p.size[l] {
				zcnt[l] = 0
				continue
			}
			dcnt[l] = c
			spanTotal += int(p.size[l])
			wl[w] = l
			w++
		}
		wl = wl[:w]
		slices.Sort(wl)
		if spanTotal < len(seg) {
			for _, l := range wl {
				c := dcnt[l]
				zcnt[l] = 0
				p.splitByClass(l, c, class, best)
			}
			wl = wl[:0]
		} else {
			spanHi := p.spanHi
			for _, f := range seg {
				l := lab[f]
				if l < 0 || zcnt[l] == 0 {
					continue
				}
				k := spanHi[l] - zcnt[l]
				zcnt[l]--
				q := pos[f]
				of := members[k]
				members[k], members[q] = f, of
				pos[f], pos[of] = k, q
			}
			for _, l := range wl {
				p.finishSplit(l, dcnt[l])
			}
		}
	}
	sc.ztouch = wl[:0]
	for _, l := range sc.dtouch {
		dcnt[l] = 0
	}
	sc.dtouch = sc.dtouch[:0]
}
