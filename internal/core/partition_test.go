package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sddict/internal/logic"
	"sddict/internal/resp"
)

// pairSet is the brute-force explicit pair set the paper's procedures
// maintain; used as the reference for the partition representation.
type pairSet map[[2]int]bool

func newPairSet(n int) pairSet {
	p := make(pairSet)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p[[2]int{i, j}] = true
		}
	}
	return p
}

// removeByBaseline drops every pair distinguished by baseline z on the
// class row, per Procedure 1 step 4.
func (p pairSet) removeByBaseline(class []int32, z int32) int {
	removed := 0
	for pair := range p {
		a, b := class[pair[0]] == z, class[pair[1]] == z
		if a != b {
			delete(p, pair)
			removed++
		}
	}
	return removed
}

// removeByClass drops every pair whose classes differ (full dictionary).
func (p pairSet) removeByClass(class []int32) int {
	removed := 0
	for pair := range p {
		if class[pair[0]] != class[pair[1]] {
			delete(p, pair)
			removed++
		}
	}
	return removed
}

// randomMatrix builds a random response matrix with small class counts so
// collisions are common.
func randomMatrix(r *rand.Rand, n, k, maxClasses int) *resp.Matrix {
	m := &resp.Matrix{N: n, K: k, M: 4}
	m.Class = make([][]int32, k)
	m.Vecs = make([][]logic.BitVec, k)
	for j := 0; j < k; j++ {
		nc := 1 + r.Intn(maxClasses)
		m.Class[j] = make([]int32, n)
		used := map[int32]bool{}
		for i := 0; i < n; i++ {
			c := int32(r.Intn(nc))
			m.Class[j][i] = c
			used[c] = true
		}
		// Class ids must be dense: remap to first-occurrence order with the
		// fault-free class 0 kept.
		remap := map[int32]int32{0: 0}
		var next int32 = 1
		for i := 0; i < n; i++ {
			c := m.Class[j][i]
			if _, ok := remap[c]; !ok {
				remap[c] = next
				next++
			}
			m.Class[j][i] = remap[c]
		}
		m.Vecs[j] = make([]logic.BitVec, next)
		for c := int32(0); c < next; c++ {
			v := logic.NewBitVec(m.M)
			for b := 0; b < m.M; b++ {
				v.Set(b, uint64(c>>uint(b))&1)
			}
			m.Vecs[j][c] = v
		}
	}
	return m
}

// TestPartitionMatchesPairSet cross-validates partition refinement against
// the brute-force pair set on random matrices and random baseline choices.
func TestPartitionMatchesPairSet(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(20)
		k := 1 + r.Intn(8)
		m := randomMatrix(r, n, k, 5)
		part := NewPartition(n)
		pairs := newPairSet(n)
		for j := 0; j < k; j++ {
			z := int32(r.Intn(m.NumClasses(j)))
			gotRemoved := part.RefineByBaseline(m.Class[j], z)
			wantRemoved := pairs.removeByBaseline(m.Class[j], z)
			if gotRemoved != int64(wantRemoved) {
				t.Fatalf("trial %d test %d: removed %d pairs, want %d", trial, j, gotRemoved, wantRemoved)
			}
			if got, want := part.Pairs(), int64(len(pairs)); got != want {
				t.Fatalf("trial %d test %d: %d pairs remain, want %d", trial, j, got, want)
			}
		}
		// Group membership must match pair membership.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				same := part.Label(i) != Isolated && part.Label(i) == part.Label(j)
				if same != pairs[[2]int{i, j}] {
					t.Fatalf("trial %d: pair (%d,%d) grouped=%v, pairset=%v", trial, i, j, same, pairs[[2]int{i, j}])
				}
			}
		}
	}
}

// TestRefineByClassMatchesPairSet cross-validates full-dictionary
// refinement.
func TestRefineByClassMatchesPairSet(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(20)
		k := 1 + r.Intn(6)
		m := randomMatrix(r, n, k, 4)
		part := NewPartition(n)
		pairs := newPairSet(n)
		for j := 0; j < k; j++ {
			got := part.RefineByClass(m.Class[j])
			want := pairs.removeByClass(m.Class[j])
			if got != int64(want) {
				t.Fatalf("trial %d test %d: removed %d, want %d", trial, j, got, want)
			}
		}
		if got, want := part.Pairs(), int64(len(pairs)); got != want {
			t.Fatalf("trial %d: %d pairs, want %d", trial, got, want)
		}
	}
}

// TestDistPerClassMatchesBruteForce checks the dist(z) computation against
// direct pair counting (Procedure 1 step 3a).
func TestDistPerClassMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(25)
		m := randomMatrix(r, n, 3, 6)
		part := NewPartition(n)
		pairs := newPairSet(n)
		// Refine by a couple of tests first so the partition is nontrivial.
		for j := 0; j < 2; j++ {
			z := int32(r.Intn(m.NumClasses(j)))
			part.RefineByBaseline(m.Class[j], z)
			pairs.removeByBaseline(m.Class[j], z)
		}
		var sc distScratch
		dist := sc.perClass(part, m.Class[2], m.NumClasses(2))
		for z := int32(0); z < int32(m.NumClasses(2)); z++ {
			want := int64(0)
			for pair := range pairs {
				a, b := m.Class[2][pair[0]] == z, m.Class[2][pair[1]] == z
				if a != b {
					want++
				}
			}
			if dist[z] != want {
				t.Fatalf("trial %d: dist(%d) = %d, want %d", trial, z, dist[z], want)
			}
		}
		// The scalar reference must agree with perClass on every value,
		// bit for bit.
		rdist := refPerClass(cloneLabels(part), part.next, m.Class[2], m.NumClasses(2))
		for z := int32(0); z < int32(m.NumClasses(2)); z++ {
			if rdist[z] != dist[z] {
				t.Fatalf("trial %d: refPerClass(%d) = %d, perClass = %d", trial, z, rdist[z], dist[z])
			}
		}
	}
}

// TestMeet checks the partition meet used by Procedure 2 against refining
// from scratch.
func TestMeet(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(25)
		k := 2 + r.Intn(6)
		m := randomMatrix(r, n, k, 4)
		cut := 1 + r.Intn(k-1)
		zs := make([]int32, k)
		for j := range zs {
			zs[j] = int32(r.Intn(m.NumClasses(j)))
		}
		a := NewPartition(n)
		for j := 0; j < cut; j++ {
			a.RefineByBaseline(m.Class[j], zs[j])
		}
		b := NewPartition(n)
		for j := cut; j < k; j++ {
			b.RefineByBaseline(m.Class[j], zs[j])
		}
		whole := NewPartition(n)
		for j := 0; j < k; j++ {
			whole.RefineByBaseline(m.Class[j], zs[j])
		}
		met := Meet(a, b)
		if met.Pairs() != whole.Pairs() {
			t.Fatalf("trial %d: meet has %d pairs, sequential has %d", trial, met.Pairs(), whole.Pairs())
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sm := met.Label(i) != Isolated && met.Label(i) == met.Label(j)
				sw := whole.Label(i) != Isolated && whole.Label(i) == whole.Label(j)
				if sm != sw {
					t.Fatalf("trial %d: pair (%d,%d) meet=%v sequential=%v", trial, i, j, sm, sw)
				}
			}
		}
	}
}

// TestPartitionPairsQuick property-checks Pairs() = C(n,2) minus removals,
// i.e. the running removed count always reconciles with the remaining count.
func TestPartitionPairsQuick(t *testing.T) {
	f := func(classesRaw []uint8, baselineRaw uint8) bool {
		if len(classesRaw) < 2 {
			return true
		}
		if len(classesRaw) > 64 {
			classesRaw = classesRaw[:64]
		}
		n := len(classesRaw)
		class := make([]int32, n)
		for i, c := range classesRaw {
			class[i] = int32(c % 7)
		}
		z := int32(baselineRaw % 7)
		p := NewPartition(n)
		total := p.Pairs()
		removed := p.RefineByBaseline(class, z)
		return p.Pairs() == total-removed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
