// Package resp builds and stores the full-response information all fault
// dictionaries are derived from: for every test, the set of distinct output
// vectors produced by the modeled faults (the paper's Z_j), with each fault
// mapped to its vector's class id. Class 0 of every test is the fault-free
// response, so pass/fail information is directly readable and the
// same/different baseline search never has to touch raw vectors.
package resp

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/obs"
	"sddict/internal/par"
	"sddict/internal/pattern"
	"sddict/internal/sim"
)

// Matrix is the deduplicated full-response matrix of a fault set under a
// test set.
type Matrix struct {
	N int // number of faults
	K int // number of tests
	M int // number of outputs

	// Class[j][i] is the response class of fault i under test j. Class 0 is
	// always the fault-free response z_ff,j.
	Class [][]int32
	// Vecs[j][c] is the output vector of class c under test j;
	// Vecs[j][0] is the fault-free output vector.
	Vecs [][]logic.BitVec

	// index[j] is the detected-fault index of Class[j] (DESIGN.md §14),
	// derived from the class rows on first use. Class stays the API of
	// record — the index is a pure re-encoding of it.
	index     []ClassIndex
	indexOnce sync.Once
}

// ClassIndex is the detected-fault index of one test's class row: the
// faults with a nonzero class, grouped by class in ascending class order
// and ascending fault order within a class. One walk of the list yields
// every per-group class count of a test — class 0 by complement — which
// is what makes the dictionary search's dist scan O(detected) instead of
// O(live) on sparse tests. It costs O(N) words per test.
type ClassIndex struct {
	// detOffs[z]..detOffs[z+1] delimits class z's segment of detList
	// (class 0 has an empty segment).
	detList []int32
	detOffs []int32
}

// DetectedList returns the ascending-class detected-fault index: every
// fault with a nonzero class, grouped by class. The slice aliases the
// matrix's storage and must not be modified.
func (ci ClassIndex) DetectedList() []int32 { return ci.detList }

// ClassList returns the ascending fault indices of response class z ≥ 1.
func (ci ClassIndex) ClassList(z int32) []int32 {
	return ci.detList[ci.detOffs[z]:ci.detOffs[z+1]]
}

// indexDetected builds the detected-fault index of a class row by
// counting sort: O(n + numClasses), fault-ascending within each class.
func indexDetected(class []int32, numClasses int) ClassIndex {
	offs := make([]int32, numClasses+1)
	for _, z := range class {
		if z != 0 {
			offs[z]++
		}
	}
	var total int32
	for z := 1; z <= numClasses; z++ {
		c := int32(0)
		if z < numClasses {
			c = offs[z]
		}
		offs[z] = total
		total += c
	}
	list := make([]int32, total)
	fill := append([]int32(nil), offs[:numClasses]...)
	for i, z := range class {
		if z != 0 {
			list[fill[z]] = int32(i)
			fill[z]++
		}
	}
	return ClassIndex{detList: list, detOffs: offs}
}

// ClassIndex returns the detected-fault index of test j's class row,
// deriving every test's index on first use. Safe for concurrent use.
func (m *Matrix) ClassIndex(j int) ClassIndex {
	m.indexOnce.Do(func() {
		m.index = make([]ClassIndex, m.K)
		for k := range m.index {
			m.index[k] = indexDetected(m.Class[k], m.NumClasses(k))
		}
	})
	return m.index[j]
}

// NumClasses returns the number of distinct responses observed for test j
// (including the fault-free response).
func (m *Matrix) NumClasses(j int) int { return len(m.Vecs[j]) }

// Detected reports whether fault i is detected by test j (its response
// differs from the fault-free response).
func (m *Matrix) Detected(j, i int) bool { return m.Class[j][i] != 0 }

// DetectedCount returns how many of the N faults test j detects.
func (m *Matrix) DetectedCount(j int) int {
	n := 0
	for _, c := range m.Class[j] {
		if c != 0 {
			n++
		}
	}
	return n
}

// FullSizeBits returns the storage size of a full fault dictionary for this
// matrix: k·n·m bits (paper, Section 2).
func (m *Matrix) FullSizeBits() int64 { return int64(m.K) * int64(m.N) * int64(m.M) }

// PassFailSizeBits returns the storage size of a pass/fail dictionary:
// k·n bits.
func (m *Matrix) PassFailSizeBits() int64 { return int64(m.K) * int64(m.N) }

// SameDiffSizeBits returns the storage size of a same/different dictionary
// with one baseline vector per test: k·(n+m) bits.
func (m *Matrix) SameDiffSizeBits() int64 { return int64(m.K) * (int64(m.N) + int64(m.M)) }

// patternRow is one test's assembled response data: the class of every
// fault and the deduplicated class vectors.
type patternRow struct {
	class []int32
	vecs  []logic.BitVec
}

// BuildObsCtx fault-simulates every fault under every test (64 patterns
// per pass) and returns the deduplicated response matrix. Batches run in
// order; within a batch the fault sweep is sharded across workers
// Simulator forks (0 = one per available CPU, 1 = sequential) and the
// per-test class tables are assembled concurrently. Class ids are
// assigned by scanning effects in fault-index order, so the matrix is
// byte-identical at every worker count (DESIGN.md §9) and with ob set or
// nil, and ob's sim_batches counter and resp_build events are the same
// at every worker count.
//
// A partial matrix would silently corrupt every dictionary built from
// it, so unlike the dictionary search this stage does not degrade:
// cancellation, checked per fault within each batch, returns ctx.Err()
// and no matrix.
func BuildObsCtx(ctx context.Context, workers int, view *netlist.ScanView, faults []fault.Fault, tests *pattern.Set, ob *obs.Observer) (*Matrix, error) {
	if tests.Width != view.NumInputs() {
		panic(fmt.Sprintf("resp: test width %d != %d scan inputs", tests.Width, view.NumInputs()))
	}
	m := &Matrix{N: len(faults), K: tests.Len(), M: view.NumOutputs()}
	m.Class = make([][]int32, m.K)
	m.Vecs = make([][]logic.BitVec, m.K)

	if ob.Tracing() {
		ob.Emit("resp_build", map[string]any{
			"faults": m.N, "tests": m.K, "outputs": m.M, "workers": workers,
		})
	}
	pool := par.New(workers)
	s := sim.New(view)
	goodWords := make([]logic.Word, m.M)
	base := 0
	for _, batch := range tests.Pack() {
		b := batch
		s.Apply(&b)
		s.GoodOutputs(goodWords)

		effects, err := sweepEffects(ctx, pool, s, faults)
		if err != nil {
			return nil, err
		}
		// Transpose the per-fault detect words once per batch: each test's
		// assembly then walks only its detected faults instead of
		// re-deriving detection for every (pattern, fault) pair.
		detect := sim.DetectBitmaps(effects, b.Count)

		// Assemble each test of the batch independently: a test's class
		// table depends only on the good outputs and the effect list, and
		// class ids are assigned in fault order, exactly as the sequential
		// single-pass assembly did.
		rows, err := par.Map(ctx, pool, b.Count, func(ctx context.Context, p int) (patternRow, error) {
			if ctx.Err() != nil {
				return patternRow{}, ctx.Err()
			}
			return assemblePattern(m, goodWords, effects, detect[p], p), nil
		})
		if err != nil {
			return nil, err
		}
		for p, row := range rows {
			j := base + p
			m.Class[j] = row.class
			m.Vecs[j] = row.vecs
		}
		base += b.Count
		ob.M().Inc(obs.SimBatches)
		ob.Tick()
	}
	return m, nil
}

// sweepEffects simulates every fault against the simulator's current batch,
// sharding the fault list across per-worker forks, and returns the effects
// indexed by fault. Each shard is a pure function of (applied batch, fault
// range), so the result is independent of the shard count.
func sweepEffects(ctx context.Context, pool *par.Pool, s *sim.Simulator, faults []fault.Fault) ([]sim.Effect, error) {
	w := pool.Workers()
	if w == 1 {
		effects := make([]sim.Effect, len(faults))
		err := s.ForEachFault(ctx, faults, func(i int, eff sim.Effect) {
			effects[i] = eff
		})
		if err != nil {
			return nil, err
		}
		return effects, nil
	}
	if w > len(faults) {
		w = len(faults)
	}
	shards, err := par.Map(ctx, pool, w, func(ctx context.Context, k int) ([]sim.Effect, error) {
		lo, hi := k*len(faults)/w, (k+1)*len(faults)/w
		fork := s.Fork()
		shard := make([]sim.Effect, 0, hi-lo)
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			shard = append(shard, fork.Propagate(faults[i]))
		}
		return shard, nil
	})
	if err != nil {
		return nil, err
	}
	effects := make([]sim.Effect, 0, len(faults))
	for _, shard := range shards {
		effects = append(effects, shard...)
	}
	return effects, nil
}

// assemblePattern builds one test's class row and vector table from the
// batch's effect list. detect is this pattern's fault bitmap from
// sim.DetectBitmaps: undetected faults are class 0 by construction, and
// the detected faults are walked in index order via trailing-zero
// iteration, so class ids match the sequential full-scan assembly bit for
// bit. Each fault's vector is built in one scratch vector and copied only
// when it opens a new class.
func assemblePattern(m *Matrix, goodWords []logic.Word, effects []sim.Effect, detect []uint64, p int) patternRow {
	good := logic.NewBitVec(m.M)
	for o := 0; o < m.M; o++ {
		good.Set(o, (goodWords[o]>>uint(p))&1)
	}
	row := patternRow{
		class: make([]int32, m.N),
		vecs:  []logic.BitVec{good},
	}
	byHash := map[uint64][]int32{good.Hash(): {0}}
	vec := logic.NewBitVec(m.M)
	for w, dw := range detect {
		for dw != 0 {
			i := w<<6 + bits.TrailingZeros64(dw)
			dw &= dw - 1
			copy(vec, good)
			for _, d := range effects[i].Diffs {
				if d.Bits&(1<<uint(p)) != 0 {
					vec.Set(int(d.Slot), 1-vec.Get(int(d.Slot)))
				}
			}
			h := vec.Hash()
			cls := int32(-1)
			for _, cand := range byHash[h] {
				if row.vecs[cand].Equal(vec) {
					cls = cand
					break
				}
			}
			if cls < 0 {
				cls = int32(len(row.vecs))
				row.vecs = append(row.vecs, vec.Clone())
				byHash[h] = append(byHash[h], cls)
			}
			row.class[i] = cls
		}
	}
	return row
}

// FromResponses builds a matrix from explicit output vectors, e.g. when
// responses come from an external fault simulator or from a worked example:
// ff[j] is the fault-free output vector of test j and responses[j][i] the
// output vector of fault i under test j. All vectors must hold m bits.
func FromResponses(m int, ff []logic.BitVec, responses [][]logic.BitVec) *Matrix {
	mat := &Matrix{N: 0, K: len(ff), M: m}
	if mat.K > 0 {
		mat.N = len(responses[0])
	}
	mat.Class = make([][]int32, mat.K)
	mat.Vecs = make([][]logic.BitVec, mat.K)
	for j := 0; j < mat.K; j++ {
		if len(responses[j]) != mat.N {
			panic(fmt.Sprintf("resp: test %d has %d responses, want %d", j, len(responses[j]), mat.N))
		}
		mat.Class[j] = make([]int32, mat.N)
		mat.Vecs[j] = []logic.BitVec{ff[j].Clone()}
		for i, v := range responses[j] {
			cls := int32(-1)
			for c, seen := range mat.Vecs[j] {
				if seen.Equal(v) {
					cls = int32(c)
					break
				}
			}
			if cls < 0 {
				cls = int32(len(mat.Vecs[j]))
				mat.Vecs[j] = append(mat.Vecs[j], v.Clone())
			}
			mat.Class[j][i] = cls
		}
	}
	return mat
}
