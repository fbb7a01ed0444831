// Package core implements the paper's contribution: the same/different
// fault dictionary and its baseline-selection procedures, together with the
// pass/fail and full dictionaries it is compared against.
//
// The paper maintains an explicit set P of not-yet-distinguished fault
// pairs. This implementation represents P implicitly as a partition of the
// fault set into groups of currently-indistinguished faults: two faults
// form a pair in P exactly when they share a group. Splitting groups is
// pair removal; Σ |G|·(|G|-1)/2 over groups is |P|. The two views are
// equivalent (validated against a brute-force pair set in the tests), and
// the partition refines in O(live faults) per test.
package core

// Partition tracks groups of faults that are mutually indistinguished so
// far. Faults distinguished from every other fault are "isolated" and
// carry label -1; all other faults carry a group label in [0, NumLabels).
//
// Beyond the label array (the representation of record, whose numbering is
// part of the deterministic contract), a Partition maintains incremental
// group state so the hot-path queries are cheap (DESIGN.md §14):
//
//   - size/labs/groups: per-label group sizes and the ascending list of
//     group labels, so refinement visits only live groups;
//   - live/pairs: running totals making Done() and Pairs() O(1);
//   - members/spanLo/spanHi: the faults of each live group stored
//     contiguously, so per-group scans touch only live faults instead of
//     the whole label array.
//
// All of it is derived state: the label array plus the split rules below
// fully determine every field, so the observable behaviour (labels, pair
// counts, dist values) is bit-identical to the pre-refactor scalar
// implementation kept in partition_ref.go.
type Partition struct {
	lab  []int32
	next int32

	size   []int32 // per label; 0 once a label dies (groups never have size 1)
	labs   []int32 // ascending label list; may contain dead entries
	dead   int     // dead entries currently in labs
	groups int     // live (size ≥ 2) groups
	live   int     // faults not yet isolated
	pairs  int64   // Σ s·(s−1)/2 over live groups

	members []int32 // faults in group-contiguous order
	pos     []int32 // pos[f] = index of fault f in members (live faults only)
	spanLo  []int32 // per label: members[spanLo[l]:spanHi[l]] is group l
	spanHi  []int32

	// labCap bounds every label id this partition can ever allocate: a
	// group of size s yields at most s−1 descendant labels, so
	// next + live − groups at rebuild time covers all future splits.
	// Scan scratch sized to labCap never reallocates mid-restart.
	labCap int

	// canon records that the labels are exactly what relabelWith would
	// give them: dense, numbered by first occurrence in fault order, and
	// with the group state as rebuild left it. relabelWith and NewPartition set
	// it, finishSplit clears it. While it holds, a refinement that splits
	// no group would rewrite every field to its current value, so
	// RefineByClass skips that rewrite.
	canon bool

	scratch []int32 // rebuild fill-pointer buffer

	// RefineByClass scratch, reused across calls.
	prelim  []int32
	slot    []int32
	tsz     []int32
	touched []int32
	remap   []int32
}

// Isolated is the label of faults that are already distinguished from all
// other faults.
const Isolated = int32(-1)

// NewPartition returns the initial partition: all n faults in one group
// (every pair is a target, as in Procedure 1 step 1).
func NewPartition(n int) *Partition {
	p := &Partition{}
	p.reset(n)
	return p
}

// reset puts p in NewPartition(n)'s state, reusing its buffers.
func (p *Partition) reset(n int) {
	lab, next := int32(0), int32(1)
	if n < 2 {
		lab, next = Isolated, 0
	}
	for i := range growI32(&p.lab, n) {
		p.lab[i] = lab
	}
	p.next, p.canon = next, true
	p.rebuild()
}

// NewPartitionFromLabels builds a partition from an explicit label array;
// used to combine prefix and suffix partitions. Labels are normalized so
// singleton groups become isolated.
func NewPartitionFromLabels(lab []int32) *Partition {
	p := &Partition{lab: append([]int32(nil), lab...)}
	p.normalize()
	p.rebuild()
	return p
}

// normalize renumbers labels densely (in ascending old-label order) and
// isolates singleton groups. The caller must rebuild() afterwards.
func (p *Partition) normalize() {
	var max int32 = -1
	for _, l := range p.lab {
		if l > max {
			max = l
		}
	}
	size := make([]int32, max+1)
	for _, l := range p.lab {
		if l >= 0 {
			size[l]++
		}
	}
	remap := make([]int32, max+1)
	var next int32
	for l := range size {
		if size[l] >= 2 {
			remap[l] = next
			next++
		} else {
			remap[l] = Isolated
		}
	}
	for i, l := range p.lab {
		if l >= 0 {
			p.lab[i] = remap[l]
		}
	}
	p.next = next
}

// rebuild derives all maintained group state from lab/next. It requires a
// normalized label array: labels dense in [0, next), every group size ≥ 2.
func (p *Partition) rebuild() {
	n := int(p.next)
	p.dead = 0
	p.groups = n
	p.live = 0
	p.pairs = 0
	for _, l := range p.lab {
		if l >= 0 {
			p.live++
		}
	}
	p.labCap = int(p.next) + p.live - p.groups
	// The per-label arrays get room for labCap labels, so the splits
	// until the next rebuild never grow them in newLabel.
	if cap(p.size) < p.labCap {
		p.size = make([]int32, n, p.labCap)
		p.spanLo = make([]int32, n, p.labCap)
		p.spanHi = make([]int32, n, p.labCap)
		p.labs = make([]int32, n, p.labCap)
	}
	p.size = p.size[:n]
	p.spanLo = p.spanLo[:n]
	p.spanHi = p.spanHi[:n]
	p.labs = p.labs[:n]
	for l := 0; l < n; l++ {
		p.size[l] = 0
		p.labs[l] = int32(l)
	}
	for _, l := range p.lab {
		if l >= 0 {
			p.size[l]++
		}
	}
	off := int32(0)
	for l := 0; l < n; l++ {
		s := p.size[l]
		p.spanLo[l] = off
		off += s
		p.spanHi[l] = off
		p.pairs += int64(s) * int64(s-1) / 2
	}
	if cap(p.members) < p.live {
		p.members = make([]int32, p.live)
	}
	p.members = p.members[:p.live]
	if cap(p.pos) < len(p.lab) {
		p.pos = make([]int32, len(p.lab))
	}
	p.pos = p.pos[:len(p.lab)]
	if n > 0 {
		fill := append(p.scratch[:0], p.spanLo...)
		for i, l := range p.lab {
			if l >= 0 {
				p.members[fill[l]] = int32(i)
				p.pos[i] = fill[l]
				fill[l]++
			}
		}
		p.scratch = fill[:0]
	}
}

// compactLabs drops dead entries from the label list once they outnumber
// the live ones. Callers must not be mid-iteration over labs.
func (p *Partition) compactLabs() {
	if p.dead*2 <= len(p.labs) {
		return
	}
	w := 0
	for _, l := range p.labs {
		if p.size[l] >= 2 {
			p.labs[w] = l
			w++
		}
	}
	p.labs = p.labs[:w]
	p.dead = 0
}

// newLabel allocates a fresh group label of the given size. Span bounds are
// the caller's responsibility. The label is below labCap, so the appends
// stay within the capacity rebuild (or Clone) gave the arrays.
func (p *Partition) newLabel(sz int32) int32 {
	l := p.next
	p.next++
	p.size = append(p.size, sz)
	p.spanLo = append(p.spanLo, 0)
	p.spanHi = append(p.spanHi, 0)
	p.labs = append(p.labs, l)
	p.groups++
	return l
}

// killLabel retires a group label whose members were all isolated or moved.
func (p *Partition) killLabel(l int32) {
	p.size[l] = 0
	p.dead++
	p.groups--
}

// splitByClass splits live group l into its c members with
// class[f] == baseline and its s−c others. Membership within a group is a
// set — the partition procedures never depend on member order inside a
// span — so the span is partitioned in place with an unstable two-pointer
// pass (matches move to the back) and only out-of-place members are
// written. finishSplit applies the paper's label rules. c must equal the
// matching-member count; callers skip c == 0 and c == s groups.
func (p *Partition) splitByClass(l, c int32, class []int32, baseline int32) int64 {
	lo, hi := p.spanLo[l], p.spanHi[l]
	i, j := lo, hi-1
	for i < j {
		for i < j && class[p.members[i]] != baseline {
			i++
		}
		for i < j && class[p.members[j]] == baseline {
			j--
		}
		if i < j {
			p.members[i], p.members[j] = p.members[j], p.members[i]
			p.pos[p.members[i]], p.pos[p.members[j]] = i, j
			i++
			j--
		}
	}
	return p.finishSplit(l, c)
}

// finishSplit applies the paper's label rules to a span already
// partitioned into [lo, hi−c) others and [hi−c, hi) matches: the other
// side keeps label l, the match side gets a fresh label, and either side
// of size 1 becomes isolated. It returns the c·(s−c) pairs removed,
// updating all maintained state.
func (p *Partition) finishSplit(l, c int32) int64 {
	p.canon = false
	s := p.size[l]
	os := s - c
	removed := int64(c) * int64(os)
	p.pairs -= removed
	lo, hi := p.spanLo[l], p.spanHi[l]
	mid := hi - c

	if c >= 2 {
		nl := p.newLabel(c)
		p.spanLo[nl] = mid
		p.spanHi[nl] = hi
		for k := mid; k < hi; k++ {
			p.lab[p.members[k]] = nl
		}
	} else {
		p.lab[p.members[mid]] = Isolated
		p.live--
	}

	if os >= 2 {
		p.spanHi[l] = mid
		p.size[l] = os
	} else {
		f := p.members[lo]
		p.lab[f] = Isolated
		p.live--
		p.killLabel(l)
	}
	return removed
}

// Len returns the number of faults.
func (p *Partition) Len() int { return len(p.lab) }

// NumLabels returns the number of live (size ≥ 2) groups' label bound.
func (p *Partition) NumLabels() int32 { return p.next }

// Label returns the group label of fault i (Isolated if distinguished from
// every other fault).
func (p *Partition) Label(i int) int32 { return p.lab[i] }

// Done reports whether no indistinguished pairs remain. O(1): the live
// fault count is maintained during refinement.
func (p *Partition) Done() bool { return p.live == 0 }

// Clone returns an independent copy. Its per-label arrays have room for
// labCap labels, as rebuild gives them.
func (p *Partition) Clone() *Partition {
	labels := func(s []int32) []int32 { return append(make([]int32, 0, max(p.labCap, len(s))), s...) }
	return &Partition{
		lab:     append([]int32(nil), p.lab...),
		next:    p.next,
		size:    labels(p.size),
		labs:    labels(p.labs),
		dead:    p.dead,
		groups:  p.groups,
		live:    p.live,
		pairs:   p.pairs,
		members: append([]int32(nil), p.members...),
		pos:     append([]int32(nil), p.pos...),
		spanLo:  labels(p.spanLo),
		spanHi:  labels(p.spanHi),
		labCap:  p.labCap,
		canon:   p.canon,
	}
}

// Pairs returns the number of indistinguished fault pairs |P|. O(1): the
// total is maintained during refinement.
func (p *Partition) Pairs() int64 { return p.pairs }

// RefineByBaseline splits every group by the predicate
// class[i] == baseline — exactly the pairs a same/different dictionary bit
// with that baseline distinguishes (Procedure 1 step 4). It returns the
// number of pairs removed from P.
func (p *Partition) RefineByBaseline(class []int32, baseline int32) int64 {
	if p.groups == 0 {
		return 0
	}
	p.compactLabs()
	var removed int64
	k0 := len(p.labs) // snapshot: labels born below must not be revisited
	for idx := 0; idx < k0; idx++ {
		l := p.labs[idx]
		if p.size[l] < 2 {
			continue
		}
		var c int32
		for _, f := range p.members[p.spanLo[l]:p.spanHi[l]] {
			if class[f] == baseline {
				c++
			}
		}
		if c == 0 || c == p.size[l] {
			continue
		}
		removed += p.splitByClass(l, c, class, baseline)
	}
	return removed
}

// RefineByClass splits every group by the full class id — the refinement a
// full fault dictionary performs with test j (faults are indistinguished
// only if their entire output vectors match). Returns pairs removed.
//
// New labels are bucketed per group with a counting-sort over class ids
// (reset via a touched list, no map), then renumbered by first occurrence
// in fault order — the exact numbering the previous map-based remap plus
// normalize produced. A test that splits no group changes nothing when
// the labels are already canonical, and returns 0 without a rewrite; the
// buffers live on the partition, so that case allocates nothing.
func (p *Partition) RefineByClass(class []int32) int64 {
	var maxc int32 = -1
	split := false
	for _, l := range p.labs {
		if p.size[l] < 2 {
			continue
		}
		ms := p.members[p.spanLo[l]:p.spanHi[l]]
		z0 := class[ms[0]]
		for _, f := range ms {
			z := class[f]
			split = split || z != z0
			maxc = max(maxc, z)
		}
	}
	if !split && p.canon {
		return 0
	}
	before := p.pairs
	prelim := growI32(&p.prelim, len(p.lab))
	for i := range prelim {
		prelim[i] = -1
	}
	slot := growI32(&p.slot, int(maxc+1))
	for i := range slot {
		slot[i] = -1
	}
	touched, tsz := p.touched[:0], p.tsz[:0]
	var ntmp int32
	for _, l := range p.labs {
		if p.size[l] < 2 {
			continue
		}
		touched = touched[:0]
		for _, f := range p.members[p.spanLo[l]:p.spanHi[l]] {
			z := class[f]
			t := slot[z]
			if t < 0 {
				t = ntmp
				ntmp++
				tsz = append(tsz, 0)
				slot[z] = t
				touched = append(touched, z)
			}
			prelim[f] = t
			tsz[t]++
		}
		for _, z := range touched {
			slot[z] = -1
		}
	}
	p.touched, p.tsz = touched, tsz
	p.relabelWith(prelim, tsz, growI32(&p.remap, len(tsz)))
	return before - p.pairs
}

// relabelWith rewrites the label array from preliminary group ids:
// groups of size ≥ 2 get dense final labels in fault-order first
// occurrence, everything else becomes isolated. All maintained state is
// rebuilt. remap is caller-provided scratch of len(tsz).
func (p *Partition) relabelWith(prelim, tsz, remap []int32) {
	for i := range remap {
		remap[i] = -2 // unassigned
	}
	var next int32
	for f, t := range prelim {
		if t < 0 || tsz[t] < 2 {
			p.lab[f] = Isolated
			continue
		}
		if remap[t] == -2 {
			remap[t] = next
			next++
		}
		p.lab[f] = remap[t]
	}
	p.next = next
	p.rebuild()
	p.canon = true
}

// Meet intersects two partitions: faults share a group in the result only
// if they share a group in both inputs. Inputs must have equal length.
// Like RefineByClass, the map-based remap is replaced by per-group
// counting over b's labels with touched-list resets; the resulting label
// numbering (fault-order first occurrence among groups of size ≥ 2) is
// unchanged.
func Meet(a, b *Partition) *Partition {
	return meetInto(&Partition{}, a, b.lab, b.next, &meetScratch{})
}

// meetScratch holds the reusable buffers of meetInto, so a caller meeting
// in a loop (Procedure 2's rest partitions) allocates nothing per meet.
type meetScratch struct {
	prelim  []int32
	bslot   []int32
	touched []int32
	tsz     []int32
	remap   []int32
}

func growI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// meetInto intersects a with the partition given as a label snapshot
// (blab, bnext — b.lab and b.next of a normalized partition), writing the
// result into out and reusing out's storage plus the scratch buffers. The
// label numbering is exactly Meet's.
func meetInto(out, a *Partition, blab []int32, bnext int32, ms *meetScratch) *Partition {
	n := len(a.lab)
	prelim := growI32(&ms.prelim, n)
	for i := range prelim {
		prelim[i] = -1
	}
	bslot := growI32(&ms.bslot, int(bnext))
	for i := range bslot {
		bslot[i] = -1
	}
	touched, tsz := ms.touched[:0], ms.tsz[:0]
	var ntmp int32
	for _, la := range a.labs {
		if a.size[la] < 2 {
			continue
		}
		touched = touched[:0]
		for _, f := range a.members[a.spanLo[la]:a.spanHi[la]] {
			lb := blab[f]
			if lb < 0 {
				continue
			}
			t := bslot[lb]
			if t < 0 {
				t = ntmp
				ntmp++
				tsz = append(tsz, 0)
				bslot[lb] = t
				touched = append(touched, lb)
			}
			prelim[f] = t
			tsz[t]++
		}
		for _, lb := range touched {
			bslot[lb] = -1
		}
	}
	ms.touched, ms.tsz = touched, tsz
	out.lab = growI32(&out.lab, n)
	out.relabelWith(prelim, tsz, growI32(&ms.remap, len(tsz)))
	return out
}

// GroupSizes returns the sizes of all live groups (size ≥ 2) in ascending
// label order, useful for diagnosability statistics.
func (p *Partition) GroupSizes() []int {
	out := make([]int, 0, p.groups)
	for l := int32(0); l < p.next; l++ {
		if p.size[l] >= 2 {
			out = append(out, int(p.size[l]))
		}
	}
	return out
}
