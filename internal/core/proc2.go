package core

import (
	"context"

	"sddict/internal/obs"
	"sddict/internal/resp"
)

// Procedure 2 stays serial by design: each replacement is evaluated
// against the partition induced by all already-accepted replacements of
// the same sweep, so test j+1's decision depends on test j's outcome.
// Parallelizing it would change which replacements are taken and thus
// the result (DESIGN.md §9); only the restart phase fans out.

// procedure2 is the paper's Procedure 2: sweep the tests in index order,
// replacing each baseline with the best alternative whenever that strictly
// increases the total number of distinguished pairs; repeat until a sweep
// makes no replacement. baselines is updated in place; the final
// indistinguished-pair count and the sweep count are returned. done is
// false when ctx cut the sweeps short — each replacement is individually
// monotone, so the in-place baselines remain valid and no worse than the
// input, and the returned count is recomputed for the partial result.
//
// Evaluating a replacement at test j needs the partition induced by all
// other tests; it is formed as the meet of an incrementally maintained
// prefix partition (tests < j, with any already-accepted replacements) and
// a precomputed suffix partition (tests > j, with the baselines current at
// the start of the sweep — unchanged until the sweep reaches them).
func procedure2(ctx context.Context, m *resp.Matrix, baselines []int32, ob *obs.Observer) (int64, int, bool) {
	var scratch distScratch
	suf := newSuffixLabels(m.N, m.K)
	sweeps := 0
	var finalIndist int64
	for {
		sweeps++
		improved := false
		accepted, rejected := 0, 0

		suf.build(m, baselines)
		prefix := NewPartition(m.N)
		for j := 0; j < m.K; j++ {
			if ctx.Err() != nil {
				d := &Dictionary{Kind: SameDiff, M: m, Baselines: baselines}
				return d.Indistinguished(), sweeps, false
			}
			dist := scratch.distMeet(prefix, suf.lab(j+1), suf.next[j+1], m.Class[j], m.NumClasses(j))
			cur := baselines[j]
			best := cur
			for z := int32(0); z < int32(len(dist)); z++ {
				if dist[z] > dist[best] {
					best = z
				}
			}
			if best != cur {
				baselines[j] = best
				improved = true
				accepted++
			} else {
				rejected++
			}
			prefix.RefineByBaseline(m.Class[j], baselines[j])
		}
		finalIndist = prefix.Pairs()
		// Procedure 2 is serial, so the end of a sweep is already an
		// ordered observation point.
		ob.M().Add(obs.Proc2Accepted, int64(accepted))
		ob.M().Add(obs.Proc2Rejected, int64(rejected))
		ob.M().Set(obs.IndistPairs, finalIndist)
		if ob.Tracing() {
			ob.Emit("proc2_sweep", map[string]any{
				"sweep": sweeps, "accepted": accepted, "rejected": rejected,
				"indist": finalIndist,
			})
		}
		ob.Tick()
		if !improved {
			return finalIndist, sweeps, true
		}
		if ctx.Err() != nil {
			return finalIndist, sweeps, false
		}
	}
}

// minimizeStorage reverts baselines to the fault-free vector wherever that
// does not reduce the number of distinguished pairs, implementing the
// paper's remark that "the fault free output vector may be used for some of
// the test vectors" to shrink baseline storage. It returns the number of
// baselines reverted.
func minimizeStorage(m *resp.Matrix, baselines []int32) int {
	var scratch distScratch
	saved := 0
	suf := newSuffixLabels(m.N, m.K)
	suf.build(m, baselines)
	prefix := NewPartition(m.N)
	for j := 0; j < m.K; j++ {
		if baselines[j] != 0 {
			dist := scratch.distMeet(prefix, suf.lab(j+1), suf.next[j+1], m.Class[j], m.NumClasses(j))
			if dist[0] == dist[baselines[j]] {
				baselines[j] = 0
				saved++
			}
		}
		prefix.RefineByBaseline(m.Class[j], baselines[j])
	}
	return saved
}

// suffixLabels stores, for every test position j, the label snapshot of
// the partition refined by tests j..K−1 with the current baselines — all
// Procedure 2 needs of its suffix partitions (meetInto consumes lab/next
// only). One flat backing array replaces the K cloned partitions the
// suffix scheme previously kept alive.
type suffixLabels struct {
	n    int
	labs []int32 // (K+1)·n labels, snapshot j at [j·n, (j+1)·n)
	next []int32
}

func newSuffixLabels(n, k int) *suffixLabels {
	return &suffixLabels{
		n:    n,
		labs: make([]int32, (k+1)*n),
		next: make([]int32, k+1),
	}
}

func (s *suffixLabels) lab(j int) []int32 { return s.labs[j*s.n : (j+1)*s.n] }

// build refines one evolving partition from the last test backwards,
// snapshotting labels after each step.
func (s *suffixLabels) build(m *resp.Matrix, baselines []int32) {
	p := NewPartition(s.n)
	copy(s.lab(m.K), p.lab)
	s.next[m.K] = p.next
	for j := m.K - 1; j >= 0; j-- {
		p.RefineByBaseline(m.Class[j], baselines[j])
		copy(s.lab(j), p.lab)
		s.next[j] = p.next
	}
}

// distMeet computes, for one test, the per-class dist values of the meet
// of prefix with the suffix partition given by its label snapshot —
// without materializing the meet partition. Each live prefix group is
// bucketed by suffix label (a fault isolated on either side is isolated
// in the meet); each bucket is a meet group and contributes c·(s−c) per
// class exactly as perClass would on the materialized meet, so the dist
// values are bit-identical (integer sums, order-free) while the per-test
// cost drops from several O(n) passes of Meet + relabel + rebuild to a
// few passes over the live prefix members only.
func (sc *distScratch) distMeet(prefix *Partition, sufLab []int32, sufNext int32, class []int32, numClasses int) []int64 {
	if cap(sc.dist) < numClasses {
		sc.dist = make([]int64, numClasses)
	}
	dist := sc.dist[:numClasses]
	for i := range dist {
		dist[i] = 0
	}
	if prefix.groups == 0 {
		return dist
	}
	if cap(sc.cnt) < numClasses {
		sc.cnt = make([]int64, numClasses)
	}
	cnt := sc.cnt[:numClasses]
	if cap(sc.bslot) < int(sufNext) {
		sc.bslot = make([]int32, sufNext)
		for i := range sc.bslot {
			sc.bslot[i] = -1
		}
	}
	bslot := sc.bslot[:cap(sc.bslot)]
	if cap(sc.bmem) < len(prefix.lab) {
		sc.bmem = make([]int32, len(prefix.lab))
	}
	bmem := sc.bmem[:cap(sc.bmem)]
	prefix.compactLabs()
	for _, l := range prefix.labs {
		s := prefix.size[l]
		if s < 2 {
			continue
		}
		span := prefix.members[prefix.spanLo[l]:prefix.spanHi[l]]
		// Bucket the span by suffix label.
		nb := int32(0)
		btouch, bsize := sc.btouch[:0], sc.bsize[:0]
		for _, f := range span {
			sl := sufLab[f]
			if sl < 0 {
				continue
			}
			b := bslot[sl]
			if b < 0 {
				b = nb
				nb++
				bslot[sl] = b
				btouch = append(btouch, sl)
				bsize = append(bsize, 0)
			}
			bsize[b]++
		}
		if nb == 1 {
			// Common case: the suffix does not split this prefix group, so
			// the span (minus suffix-isolated members) is a single meet
			// group — count its classes directly, no scatter needed.
			bslot[btouch[0]] = -1
			sc.btouch, sc.bsize = btouch, bsize
			bs := bsize[0]
			if bs < 2 {
				continue
			}
			touched := sc.touched[:0]
			for _, f := range span {
				if sufLab[f] < 0 {
					continue
				}
				z := class[f]
				if cnt[z] == 0 {
					touched = append(touched, z)
				}
				cnt[z]++
			}
			s64 := int64(bs)
			for _, z := range touched {
				dist[z] += cnt[z] * (s64 - cnt[z])
				cnt[z] = 0
			}
			sc.touched = touched
			continue
		}
		// Scatter the span into contiguous bucket segments.
		bcur := sc.bcur[:0]
		off := int32(0)
		for b := int32(0); b < nb; b++ {
			bcur = append(bcur, off)
			off += bsize[b]
		}
		for _, f := range span {
			sl := sufLab[f]
			if sl < 0 {
				continue
			}
			b := bslot[sl]
			bmem[bcur[b]] = f
			bcur[b]++
		}
		// Score each bucket of size ≥ 2 as one meet group.
		pos := int32(0)
		for b := int32(0); b < nb; b++ {
			bs := bsize[b]
			seg := bmem[pos : pos+bs]
			pos += bs
			if bs < 2 {
				continue
			}
			touched := sc.touched[:0]
			for _, f := range seg {
				z := class[f]
				if cnt[z] == 0 {
					touched = append(touched, z)
				}
				cnt[z]++
			}
			s64 := int64(bs)
			for _, z := range touched {
				dist[z] += cnt[z] * (s64 - cnt[z])
				cnt[z] = 0
			}
			sc.touched = touched
		}
		for _, sl := range btouch {
			bslot[sl] = -1
		}
		sc.btouch, sc.bsize, sc.bcur = btouch, bsize, bcur
	}
	return dist
}

// buildMulti is build for the two-baseline construction: each test refines
// by both of its baseline slots.
func (s *suffixLabels) buildMulti(m *resp.Matrix, b1, b2 []int32) {
	p := NewPartition(s.n)
	copy(s.lab(m.K), p.lab)
	s.next[m.K] = p.next
	for j := m.K - 1; j >= 0; j-- {
		p.RefineByBaseline(m.Class[j], b1[j])
		p.RefineByBaseline(m.Class[j], b2[j])
		copy(s.lab(j), p.lab)
		s.next[j] = p.next
	}
}
