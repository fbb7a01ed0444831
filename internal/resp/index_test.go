package resp

import (
	"math/rand"
	"runtime"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
)

// checkClassIndex verifies one test's detected-fault index against its
// class row: segments in ascending class order, ascending fault order
// within a class, class 0 empty, every detected fault listed exactly once.
func checkClassIndex(t *testing.T, label string, class []int32, numClasses int, ci ClassIndex) {
	t.Helper()
	if len(ci.ClassList(0)) != 0 {
		t.Fatalf("%s: class-0 segment has %d entries, want 0", label, len(ci.ClassList(0)))
	}
	seen := 0
	for z := int32(1); z < int32(numClasses); z++ {
		seg := ci.ClassList(z)
		seen += len(seg)
		prev := int32(-1)
		for _, f := range seg {
			if class[f] != z {
				t.Fatalf("%s: class %d segment lists fault %d of class %d", label, z, f, class[f])
			}
			if f <= prev {
				t.Fatalf("%s: class %d segment not in ascending fault order (%d after %d)", label, z, f, prev)
			}
			prev = f
		}
	}
	detected := 0
	for _, z := range class {
		if z != 0 {
			detected++
		}
	}
	if seen != detected || len(ci.DetectedList()) != detected {
		t.Fatalf("%s: index lists %d faults across segments, DetectedList %d, class row has %d detected",
			label, seen, len(ci.DetectedList()), detected)
	}
}

// TestClassIndexMatchesClassRow checks indexDetected on random class
// rows, including rows with empty classes beyond the observed ones.
func TestClassIndexMatchesClassRow(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(200)
		numClasses := 1 + r.Intn(8)
		class := make([]int32, n)
		for i := range class {
			class[i] = int32(r.Intn(numClasses))
		}
		checkClassIndex(t, "indexDetected", class, numClasses, indexDetected(class, numClasses))
	}
}

// TestMatrixClassIndex checks Matrix.ClassIndex on both ways a matrix is
// built: by fault simulation and from explicit responses.
func TestMatrixClassIndex(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	c := gen.Profiles["s27"].MustGenerate(33)
	view := netlist.NewScanView(c)
	col := fault.Collapse(c)
	tests := pattern.NewSet(view.NumInputs())
	for i := 0; i < 70; i++ { // crosses a batch boundary
		tests.Add(pattern.Random(r, view.NumInputs()))
	}
	sim := mustBuild(t, view, col.Faults, tests)

	const n, k, outs = 90, 6, 3
	ff := make([]logic.BitVec, k)
	responses := make([][]logic.BitVec, k)
	for j := range ff {
		ff[j] = logic.NewBitVec(outs)
		responses[j] = make([]logic.BitVec, n)
		for i := range responses[j] {
			v := logic.NewBitVec(outs)
			if r.Intn(3) != 0 {
				v[0] = uint64(r.Intn(1 << outs))
			}
			responses[j][i] = v
		}
	}
	explicit := FromResponses(outs, ff, responses)

	for _, tc := range []struct {
		label string
		m     *Matrix
	}{{"simulated", sim}, {"explicit", explicit}} {
		for j := 0; j < tc.m.K; j++ {
			checkClassIndex(t, tc.label, tc.m.Class[j], tc.m.NumClasses(j), tc.m.ClassIndex(j))
		}
	}
}

// TestBuildRetainedHeap bounds what a response matrix keeps alive: after
// Build and index derivation, the retained heap must stay within a small
// multiple of the Class rows and Vecs it holds. On a many-output circuit
// most tests have hundreds of response classes, so any per-class,
// per-test structure of ⌈N/64⌉ words (a fault bitmap per class) costs an
// order of magnitude more than the class row and fails the bound; that
// is what ran s9234/10det out of memory.
func TestBuildRetainedHeap(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	c := gen.Profiles["s5378"].MustGenerate(1)
	view := netlist.NewScanView(c)
	col := fault.Collapse(c)
	tests := pattern.NewSet(view.NumInputs())
	for i := 0; i < 64; i++ {
		tests.Add(pattern.Random(r, view.NumInputs()))
	}

	before := liveHeap()
	m := mustBuild(t, view, col.Faults, tests)
	m.ClassIndex(0)
	retained := int64(liveHeap()) - int64(before)

	// Payload: the backing arrays and slice headers of Class and Vecs.
	const header = 24
	payload := int64(header * (cap(m.Class) + cap(m.Vecs)))
	for j := 0; j < m.K; j++ {
		payload += int64(4 * cap(m.Class[j]))
		payload += int64(header * cap(m.Vecs[j]))
		for _, v := range m.Vecs[j] {
			payload += int64(8 * cap(v))
		}
	}
	runtime.KeepAlive(m)
	ratio := float64(retained) / float64(payload)
	t.Logf("N=%d K=%d: retained %d B, Class+Vecs %d B, ratio %.2f", m.N, m.K, retained, payload, ratio)
	if ratio > 3 {
		t.Fatalf("retained heap is %.2f× the Class rows and Vecs (%d of %d B), want ≤ 3×", ratio, retained, payload)
	}
}

// liveHeap returns the heap bytes still reachable. Two collections also
// drain the sync.Pool victim caches left from earlier work.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
