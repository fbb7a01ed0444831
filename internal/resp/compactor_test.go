package resp

import (
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
)

func buildSmallMatrix(t *testing.T) *Matrix {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	c := gen.Profiles["s298"].MustGenerate(5)
	comb := netlist.Combinationalize(c)
	view := netlist.NewScanView(comb)
	col := fault.Collapse(comb)
	tests := pattern.NewSet(view.NumInputs())
	for i := 0; i < 96; i++ {
		tests.Add(pattern.Random(r, view.NumInputs()))
	}
	return mustBuild(t, view, col.Faults, tests)
}

// countPairs returns the number of fault pairs with identical responses
// under every test of the matrix (full-dictionary resolution), computed
// directly to avoid importing core.
func countPairs(m *Matrix) int64 {
	// Group faults by their full class tuple via hashing of rows.
	type key struct{ h1, h2 uint64 }
	groups := map[key]int64{}
	for i := 0; i < m.N; i++ {
		var h1, h2 uint64 = 14695981039346656037, 1099511628211
		for j := 0; j < m.K; j++ {
			c := uint64(m.Class[j][i])
			h1 = (h1 ^ c) * 1099511628211
			h2 = h2*31 + c
		}
		groups[key{h1, h2}]++
	}
	var pairs int64
	for _, n := range groups {
		pairs += n * (n - 1) / 2
	}
	return pairs
}

func TestCompactOutputsBasics(t *testing.T) {
	m := buildSmallMatrix(t)
	cm := m.CompactOutputs(8, 1)
	if cm.M != 8 || cm.N != m.N || cm.K != m.K {
		t.Fatalf("dims wrong: %d/%d/%d", cm.N, cm.K, cm.M)
	}
	for j := 0; j < cm.K; j++ {
		if cm.NumClasses(j) > m.NumClasses(j) {
			t.Fatalf("test %d: compaction increased class count", j)
		}
		// Class 0 remains the fault-free response: any fault in old class
		// 0 must be in new class 0.
		for i := 0; i < m.N; i++ {
			if m.Class[j][i] == 0 && cm.Class[j][i] != 0 {
				t.Fatalf("test %d fault %d: fault-free response left class 0", j, i)
			}
		}
	}
	// Sizes shrink.
	if cm.FullSizeBits() >= m.FullSizeBits() || cm.SameDiffSizeBits() >= m.SameDiffSizeBits() {
		t.Fatalf("compaction did not shrink sizes")
	}
}

// TestCompactOutputsOnlyMerges: the compacted classes are a coarsening —
// two faults sharing an old class always share a new class, so resolution
// only degrades.
func TestCompactOutputsOnlyMerges(t *testing.T) {
	m := buildSmallMatrix(t)
	for _, mp := range []int{4, 8, 16} {
		cm := m.CompactOutputs(mp, 7)
		for j := 0; j < m.K; j++ {
			for i := 1; i < m.N; i++ {
				if m.Class[j][i] == m.Class[j][0] && cm.Class[j][i] != cm.Class[j][0] {
					t.Fatalf("m'=%d test %d: compaction split a class", mp, j)
				}
			}
		}
		if countPairs(cm) < countPairs(m) {
			t.Fatalf("m'=%d: compaction improved resolution — impossible", mp)
		}
	}
}

// TestCompactOutputsWideningHelps: more parity bits never hurt resolution
// on average; check the extremes.
func TestCompactOutputsWideningHelps(t *testing.T) {
	m := buildSmallMatrix(t)
	narrow := countPairs(m.CompactOutputs(2, 5))
	wide := countPairs(m.CompactOutputs(32, 5))
	if wide > narrow {
		t.Fatalf("32-bit compactor (%d pairs) worse than 2-bit (%d)", wide, narrow)
	}
}

func TestCompactOutputsDeterministic(t *testing.T) {
	m := buildSmallMatrix(t)
	a := m.CompactOutputs(8, 42)
	b := m.CompactOutputs(8, 42)
	for j := 0; j < m.K; j++ {
		for i := 0; i < m.N; i++ {
			if a.Class[j][i] != b.Class[j][i] {
				t.Fatal("compactor not deterministic for equal seeds")
			}
		}
	}
}
