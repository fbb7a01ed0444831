package core

// Reference implementations of the pre-packing scalar partition
// operations, kept as the executable specification of the engine in
// partition.go / partition_indexed.go. They operate on a bare label array
// (the representation of record) with none of the maintained group state,
// exactly as the original code did. The property tests in
// partition_test.go and partition_prop_test.go assert that the maintained
// engine — member scan and index scan alike — matches these on random
// partitions and class vectors: labels, removed-pair counts, and every
// dist value bit for bit.
// They are not used outside tests.

// refRefineByBaseline is the original RefineByBaseline: full label-array
// passes for sizes and match counts, then per-old-label new-label tables.
// It mutates lab in place and returns the pairs removed and the new label
// bound.
func refRefineByBaseline(lab []int32, next int32, class []int32, baseline int32) (int64, int32) {
	if next == 0 {
		return 0, next
	}
	size := make([]int32, next)
	match := make([]int32, next)
	for i, l := range lab {
		if l < 0 {
			continue
		}
		size[l]++
		if class[i] == baseline {
			match[l]++
		}
	}
	var removed int64
	// For each group decide the new labels of its "match" and "other"
	// sides. A side of size 1 becomes isolated; an empty side means no
	// split. Fresh labels are allocated past the pre-refinement bound, so
	// the tables indexed below never see them.
	oldNext := next
	matchLab := make([]int32, oldNext)
	otherLab := make([]int32, oldNext)
	for l := int32(0); l < oldNext; l++ {
		ms, os := match[l], size[l]-match[l]
		removed += int64(ms) * int64(os)
		switch {
		case ms == 0:
			matchLab[l], otherLab[l] = Isolated, l // match side empty
		case os == 0:
			matchLab[l], otherLab[l] = l, Isolated // other side empty
		default:
			if ms == 1 {
				matchLab[l] = Isolated
			} else {
				matchLab[l] = next
				next++
			}
			if os == 1 {
				otherLab[l] = Isolated
			} else {
				otherLab[l] = l
			}
		}
	}
	for i, l := range lab {
		if l < 0 {
			continue
		}
		if class[i] == baseline {
			lab[i] = matchLab[l]
		} else {
			lab[i] = otherLab[l]
		}
	}
	return removed, next
}

// refPerClass is the original distScratch.perClass: rebuild the group
// member lists from the label array, then one counting-sort pass per
// group. dist(z) accumulates c·(s−c) per group exactly as the member and
// index scans do, so all three must agree on every value.
func refPerClass(lab []int32, next int32, class []int32, numClasses int) []int64 {
	dist := make([]int64, numClasses)
	n := int(next)
	if n == 0 {
		return dist
	}
	sizes := make([]int64, n)
	for _, l := range lab {
		if l >= 0 {
			sizes[l]++
		}
	}
	offs := make([]int32, n+1)
	for l := 0; l < n; l++ {
		offs[l+1] = offs[l] + int32(sizes[l])
	}
	members := make([]int32, offs[n])
	fill := append([]int32(nil), offs[:n]...)
	for i, l := range lab {
		if l >= 0 {
			members[fill[l]] = int32(i)
			fill[l]++
		}
	}
	cnt := make([]int64, numClasses)
	var touched []int32
	for l := 0; l < n; l++ {
		lo, hi := offs[l], offs[l+1]
		if hi-lo < 2 {
			continue
		}
		touched = touched[:0]
		for _, i := range members[lo:hi] {
			z := class[i]
			if cnt[z] == 0 {
				touched = append(touched, z)
			}
			cnt[z]++
		}
		s := int64(hi - lo)
		for _, z := range touched {
			dist[z] += cnt[z] * (s - cnt[z])
			cnt[z] = 0
		}
	}
	return dist
}

// refPairs is the original Pairs: a full label-array scan.
func refPairs(lab []int32, next int32) int64 {
	size := make([]int64, next)
	for _, l := range lab {
		if l >= 0 {
			size[l]++
		}
	}
	var pairs int64
	for _, s := range size {
		pairs += s * (s - 1) / 2
	}
	return pairs
}
