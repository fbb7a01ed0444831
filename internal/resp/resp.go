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
// order; within a batch the fault sweep (sim.Sweep: one propagation per
// fanout-free-region root) is sharded across workers Simulator forks
// (0 = one per available CPU, 1 = sequential) and the per-test class
// tables are assembled concurrently. Class ids are assigned by scanning
// the detected faults in fault-index order, so the matrix is
// byte-identical at every worker count (DESIGN.md §9) and with ob set or
// nil, and ob's sim_batches and sim_root_flips counters and resp_build
// events are the same at every worker count.
//
// A partial matrix would silently corrupt every dictionary built from
// it, so unlike the dictionary search this stage does not degrade:
// cancellation, checked per fault and per root flip within each batch,
// returns ctx.Err() and no matrix.
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
	var sw sim.Sweep
	goodWords := make([]logic.Word, m.M)
	detWords := make([]uint64, m.N)
	base := 0
	for _, batch := range tests.Pack() {
		b := batch
		s.Apply(&b)
		s.GoodOutputs(goodWords)
		if err := sw.Run(ctx, pool, s, faults); err != nil {
			return nil, err
		}
		// Transpose the per-fault detect words once per batch: each test's
		// assembly then walks only its detected faults instead of
		// re-deriving detection for every (pattern, fault) pair.
		for i := range detWords {
			detWords[i] = sw.Detect(i)
		}
		detect := sim.DetectBitmaps(detWords, b.Count)

		// Assemble each test of the batch independently: a test's class
		// table depends only on the good outputs and the sweep, and class
		// ids are assigned in fault order. The patterns are split into one
		// contiguous range per worker, so each range reuses its scratch.
		w := min(pool.Workers(), b.Count)
		chunks, err := par.Map(ctx, pool, w, func(ctx context.Context, k int) ([]patternRow, error) {
			a := newAssembler(m.M, sw.Flips())
			lo, hi := k*b.Count/w, (k+1)*b.Count/w
			rows := make([]patternRow, 0, hi-lo)
			for p := lo; p < hi; p++ {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				rows = append(rows, a.pattern(m.N, goodWords, &sw, detect[p], p))
			}
			return rows, nil
		})
		if err != nil {
			return nil, err
		}
		j := base
		for _, rows := range chunks {
			for _, row := range rows {
				m.Class[j] = row.class
				m.Vecs[j] = row.vecs
				j++
			}
		}
		base += b.Count
		ob.M().Inc(obs.SimBatches)
		ob.M().Add(obs.SimRootFlips, int64(sw.Flips()))
		ob.Tick()
	}
	return m, nil
}

// assembler is one worker's scratch for assembling class rows.
type assembler struct {
	vec    logic.BitVec
	table  classTable
	memo   []int32 // per sweep root: its class at the pattern stamped in memoAt
	memoAt []int32
}

func newAssembler(m, roots int) *assembler {
	a := &assembler{vec: logic.NewBitVec(m), memo: make([]int32, roots), memoAt: make([]int32, roots)}
	for k := range a.memoAt {
		a.memoAt[k] = -1
	}
	return a
}

// pattern builds test p's class row and vector table from the batch's
// sweep. detect is this pattern's fault bitmap from sim.DetectBitmaps:
// undetected faults are class 0 by construction, and the detected faults
// are walked in index order via trailing-zero iteration, so class ids
// follow first occurrence in fault order. Faults that exit through the
// same region root share its faulty vector on p, so each root's vector
// is built and looked up once per pattern; the scratch vector is copied
// only when it opens a new class.
func (a *assembler) pattern(n int, goodWords []logic.Word, sw *sim.Sweep, detect []uint64, p int) patternRow {
	good := make(logic.BitVec, len(a.vec))
	for o := range goodWords {
		good.Set(o, (goodWords[o]>>uint(p))&1)
	}
	row := patternRow{
		class: make([]int32, n),
		vecs:  []logic.BitVec{good},
	}
	a.table.reset()
	a.table.insert(good.Hash(), 0)
	vec := a.vec
	for w, dw := range detect {
		for dw != 0 {
			i := w<<6 + bits.TrailingZeros64(dw)
			dw &= dw - 1
			k := sw.Root(i)
			if a.memoAt[k] == int32(p) {
				row.class[i] = a.memo[k]
				continue
			}
			copy(vec, good)
			for _, d := range sw.RootEffect(k).Diffs {
				vec[d.Slot>>6] ^= (d.Bits >> uint(p) & 1) << (uint(d.Slot) & 63)
			}
			h := vec.Hash()
			cls := a.table.find(h, vec, row.vecs)
			if cls < 0 {
				cls = int32(len(row.vecs))
				row.vecs = append(row.vecs, vec.Clone())
				a.table.insert(h, cls)
			}
			a.memo[k], a.memoAt[k] = cls, int32(p)
			row.class[i] = cls
		}
	}
	return row
}

// classTable maps output-vector hashes to the class ids of one test: an
// open-addressing table reused across tests.
type classTable struct {
	hash []uint64
	cls  []int32 // class id + 1; 0 marks an empty slot
	used []int32 // filled slots, cleared by reset
}

func (t *classTable) reset() {
	for _, s := range t.used {
		t.cls[s] = 0
	}
	t.used = t.used[:0]
}

// find returns the class of vec, whose hash is h, or -1.
func (t *classTable) find(h uint64, vec logic.BitVec, vecs []logic.BitVec) int32 {
	if len(t.cls) == 0 {
		return -1
	}
	mask := uint64(len(t.cls) - 1)
	for s := h & mask; t.cls[s] != 0; s = (s + 1) & mask {
		if t.hash[s] == h && vecs[t.cls[s]-1].Equal(vec) {
			return t.cls[s] - 1
		}
	}
	return -1
}

func (t *classTable) insert(h uint64, cls int32) {
	if 2*(len(t.used)+1) > len(t.cls) {
		t.grow()
	}
	mask := uint64(len(t.cls) - 1)
	s := h & mask
	for t.cls[s] != 0 {
		s = (s + 1) & mask
	}
	t.hash[s], t.cls[s] = h, cls+1
	t.used = append(t.used, int32(s))
}

// grow doubles the table and re-inserts the filled slots.
func (t *classTable) grow() {
	hash, cls, used := t.hash, t.cls, t.used
	size := max(16, 2*len(cls))
	t.hash, t.cls, t.used = make([]uint64, size), make([]int32, size), make([]int32, 0, size/2)
	for _, s := range used {
		t.insert(hash[s], cls[s]-1)
	}
}

// Append returns the matrix of m's tests followed by tail's, which must
// cover the same faults and outputs. A test's class row and vectors
// depend on that test alone, so appending the capture of added tests
// equals capturing the whole set. The rows are shared, not copied.
func (m *Matrix) Append(tail *Matrix) *Matrix {
	if tail.N != m.N || tail.M != m.M {
		panic(fmt.Sprintf("resp: append %dx%d responses to %dx%d", tail.N, tail.M, m.N, m.M))
	}
	return &Matrix{
		N:     m.N,
		K:     m.K + tail.K,
		M:     m.M,
		Class: append(m.Class[:m.K:m.K], tail.Class...),
		Vecs:  append(m.Vecs[:m.K:m.K], tail.Vecs...),
	}
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
