package core

import (
	"math/rand"
	"testing"

	"sddict/internal/logic"
	"sddict/internal/resp"
)

// Microbenchmarks for the per-test scan/refine hot path (DESIGN.md §14),
// comparing the scalar reference against the two maintained engine
// paths — member scan and detected-index scan — on one deterministic
// fixture. `make bench` runs
// these alongside the BenchmarkParallel* family and archives them in
// BENCH_parallel.json; `make bench-compare` then gates the hot path with
// ns/op by ratio and the deterministic custom metrics (dist0, best,
// pairs) by exact match, so a path that drifts off the bit-identical
// contract fails the bench gate, not just the unit tests.

// benchFaults crosses many 64-bit word boundaries so the class-bitmap
// probes of refineIndexed do real word work.
const benchFaults = 4096

// benchMatrix builds a deterministic response matrix with sparse
// detection (the dominant regime of a restart: each test detects a few
// percent of the faults), dense class ids, and class-count vectors, the
// same invariants the simulator guarantees.
func benchMatrix(r *rand.Rand, n, k, maxClasses int, density float64) *resp.Matrix {
	m := &resp.Matrix{N: n, K: k, M: 4}
	m.Class = make([][]int32, k)
	m.Vecs = make([][]logic.BitVec, k)
	for j := 0; j < k; j++ {
		nc := 2 + r.Intn(maxClasses-1)
		row := make([]int32, n)
		for i := range row {
			if r.Float64() < density {
				row[i] = 1 + int32(r.Intn(nc-1))
			}
		}
		// Class ids must be dense: remap to first-occurrence order with the
		// fault-free class 0 kept.
		remap := map[int32]int32{0: 0}
		var next int32 = 1
		for i, c := range row {
			if _, ok := remap[c]; !ok {
				remap[c] = next
				next++
			}
			row[i] = remap[c]
		}
		m.Class[j] = row
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

// benchFixture builds the shared mid-restart scenario: a partition
// refined by the first few tests exactly the way Procedure 1 would
// (argmax-dist baseline per test), plus the probe test whose scan and
// refinement the benchmarks measure.
func benchFixture() (*resp.Matrix, *Partition, int) {
	r := rand.New(rand.NewSource(97))
	m := benchMatrix(r, benchFaults, 8, 48, 0.1)
	p := NewPartition(benchFaults)
	var sc distScratch
	var evals, cutoffs int64
	probe := m.K - 1
	for j := 0; j < probe; j++ {
		p.compactLabs()
		dist := sc.perClass(p, m.Class[j], m.NumClasses(j))
		p.RefineByBaseline(m.Class[j], selectWithLower(dist, 0, &evals, &cutoffs))
	}
	return m, p, probe
}

// BenchmarkDistPerClass measures the dist(z) computation — the inner
// loop of Procedure 1's candidate scan — per path. The scalar and member
// arms report dist(0) and the indexed arm the argmax baseline
// (its scan and selection are fused); both are pure functions of the
// fixture, so bench-compare pins them exactly.
func BenchmarkDistPerClass(b *testing.B) {
	m, base, j := benchFixture()
	class, numClasses := m.Class[j], m.NumClasses(j)
	ci := m.ClassIndex(j)

	b.Run("scalar", func(b *testing.B) {
		lab := cloneLabels(base)
		var d0 int64
		for i := 0; i < b.N; i++ {
			d0 = refPerClass(lab, base.next, class, numClasses)[0]
		}
		b.ReportMetric(float64(d0), "dist0")
	})

	b.Run("member", func(b *testing.B) {
		p := base.Clone()
		p.compactLabs()
		var sc distScratch
		var d0 int64
		for i := 0; i < b.N; i++ {
			d0 = sc.perClass(p, class, numClasses)[0]
		}
		b.ReportMetric(float64(d0), "dist0")
	})

	b.Run("indexed", func(b *testing.B) {
		p := base.Clone()
		p.compactLabs()
		var sc distScratch
		var evals, cutoffs int64
		var best int32
		for i := 0; i < b.N; i++ {
			best = sc.selectIndexed(p, ci, numClasses, 0, &evals, &cutoffs)
			// Restore the all-zero scratch invariant refineIndexed would
			// normally restore.
			for _, l := range sc.dtouch {
				sc.dcnt[l] = 0
			}
			sc.dtouch = sc.dtouch[:0]
		}
		b.ReportMetric(float64(best), "best")
	})
}

// BenchmarkRefine measures one full per-test step — candidate scan,
// baseline selection, refinement — per path, the unit of work
// scanAndRefine chooses between. Setup (cloning the fixture partition)
// happens off the clock.
// Every arm reports the surviving pair count, which must be identical
// across arms: the paths are bit-identical by contract.
func BenchmarkRefine(b *testing.B) {
	m, base, j := benchFixture()
	class, numClasses := m.Class[j], m.NumClasses(j)
	ci := m.ClassIndex(j)

	b.Run("scalar", func(b *testing.B) {
		lab0 := cloneLabels(base)
		lab := make([]int32, len(lab0))
		var pairs int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(lab, lab0)
			b.StartTimer()
			var evals, cutoffs int64
			dist := refPerClass(lab, base.next, class, numClasses)
			best := selectWithLower(dist, 0, &evals, &cutoffs)
			_, next := refRefineByBaseline(lab, base.next, class, best)
			pairs = refPairs(lab, next)
		}
		b.ReportMetric(float64(pairs), "pairs")
	})

	b.Run("member", func(b *testing.B) {
		var pairs int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := base.Clone()
			p.compactLabs()
			b.StartTimer()
			var sc distScratch
			var evals, cutoffs int64
			dist := sc.perClass(p, class, numClasses)
			p.RefineByBaseline(class, selectWithLower(dist, 0, &evals, &cutoffs))
			pairs = p.Pairs()
		}
		b.ReportMetric(float64(pairs), "pairs")
	})

	b.Run("indexed", func(b *testing.B) {
		var pairs int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := base.Clone()
			p.compactLabs()
			b.StartTimer()
			var sc distScratch
			var evals, cutoffs int64
			best := sc.selectIndexed(p, ci, numClasses, 0, &evals, &cutoffs)
			sc.refineIndexed(p, ci, class, best)
			pairs = p.Pairs()
		}
		b.ReportMetric(float64(pairs), "pairs")
	})
}
