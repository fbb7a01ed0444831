package casestore

// White-box tests for the recall front: exact/near/miss verdicts,
// topK compatibility, confidence discounting, deterministic tie-breaks,
// the near list against the all-cases scan, and the Store/Backend
// contract; and the near-recall benchmark.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sddict/internal/logic"
)

// fixedClock keeps recorded timestamps deterministic.
func fixedClock() time.Time { return time.UnixMilli(1_700_000_000_000) }

// exactCase builds an exact-outcome case for the given packed signature.
func exactCase(checksum string, sig []uint64, faults ...int) Case {
	c := Case{
		Circuit: "toy", TestSet: "exhaustive", Checksum: checksum,
		SigBits: 64, Signature: sig, Exact: true, TopK: 5,
	}
	for _, f := range faults {
		c.Candidates = append(c.Candidates, Candidate{Fault: f, Name: fmt.Sprintf("g%d s-a-0", f)})
	}
	return c
}

func openMem(t *testing.T, opt Options) *Store {
	t.Helper()
	if opt.Clock == nil {
		opt.Clock = fixedClock
	}
	s, err := Open(NewMem(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRecallExactHit(t *testing.T) {
	s := openMem(t, Options{})
	rec, err := s.Record(exactCase("aaaa", []uint64{0b10}, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != 1 || rec.TimeMs != fixedClock().UnixMilli() {
		t.Fatalf("recorded case: %+v", rec)
	}

	rc := s.Recall("aaaa", logic.BitVec{0b10}, 5)
	if rc.Kind != Exact || rc.Case == nil || rc.Case.ID != 1 || rc.Confidence != 1 {
		t.Fatalf("exact recall: %+v", rc)
	}
	// Exact-outcome cases serve at any topK: the equivalence class does
	// not depend on the truncation bound.
	if rc := s.Recall("aaaa", logic.BitVec{0b10}, 1); rc.Kind != Exact {
		t.Errorf("exact-outcome case at topK=1: %v, want exact", rc.Kind)
	}
	// A different artifact checksum never recalls across revisions.
	if rc := s.Recall("bbbb", logic.BitVec{0b10}, 5); rc.Kind != Miss {
		t.Errorf("cross-checksum recall: %v, want miss", rc.Kind)
	}
}

func TestRecallNearWithinBudget(t *testing.T) {
	s := openMem(t, Options{}) // default budget 2
	if _, err := s.Record(exactCase("aaaa", []uint64{0b1100}, 1)); err != nil {
		t.Fatal(err)
	}

	rc := s.Recall("aaaa", logic.BitVec{0b1101}, 5) // distance 1
	if rc.Kind != Near || rc.Distance != 1 {
		t.Fatalf("distance-1 recall: %+v", rc)
	}
	if want := 1 - float64(1)/float64(3); rc.Confidence != want {
		t.Errorf("confidence %v, want %v", rc.Confidence, want)
	}
	rc = s.Recall("aaaa", logic.BitVec{0b0110}, 5) // distance 2
	if rc.Kind != Near || rc.Distance != 2 || rc.Confidence != 1-float64(2)/float64(3) {
		t.Fatalf("distance-2 recall: %+v", rc)
	}
	// Distance 3 exceeds the budget.
	if rc := s.Recall("aaaa", logic.BitVec{0b0011}, 5); rc.Kind != Miss {
		t.Errorf("distance-3 recall: %v, want miss", rc.Kind)
	}
}

func TestRecallNearDisabled(t *testing.T) {
	s := openMem(t, Options{Budget: -1})
	if _, err := s.Record(exactCase("aaaa", []uint64{0b1100}, 1)); err != nil {
		t.Fatal(err)
	}
	if rc := s.Recall("aaaa", logic.BitVec{0b1101}, 5); rc.Kind != Miss {
		t.Errorf("near with negative budget: %v, want miss", rc.Kind)
	}
	if rc := s.Recall("aaaa", logic.BitVec{0b1100}, 5); rc.Kind != Exact {
		t.Errorf("exact with negative budget: %v, want exact", rc.Kind)
	}
}

func TestRecallTopKCompatibility(t *testing.T) {
	s := openMem(t, Options{})
	ranked := exactCase("aaaa", []uint64{0b111}, 0, 1)
	ranked.Exact = false
	ranked.TopK = 5
	ranked.Candidates[0].Distance = 1
	ranked.Candidates[1].Distance = 2
	if _, err := s.Record(ranked); err != nil {
		t.Fatal(err)
	}

	if rc := s.Recall("aaaa", logic.BitVec{0b111}, 5); rc.Kind != Exact {
		t.Errorf("ranked case at its own topK: %v, want exact", rc.Kind)
	}
	// A ranked-outcome case truncates differently at another topK, and
	// its identical signature must not resurface as a near hit either.
	if rc := s.Recall("aaaa", logic.BitVec{0b111}, 3); rc.Kind != Miss {
		t.Errorf("ranked case at different topK: %v, want miss", rc.Kind)
	}
	// Ranked-outcome cases are never near-servable: their distances are
	// relative to their own signature, not the query's.
	if rc := s.Recall("aaaa", logic.BitVec{0b110}, 5); rc.Kind != Miss {
		t.Errorf("near against ranked-only history: %v, want miss", rc.Kind)
	}
}

func TestRecallNearTieBreaksLowestID(t *testing.T) {
	s := openMem(t, Options{})
	if _, err := s.Record(exactCase("aaaa", []uint64{0b01}, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Record(exactCase("aaaa", []uint64{0b10}, 0)); err != nil {
		t.Fatal(err)
	}
	// 0b11 is at distance 1 from both recorded signatures; the verdict
	// must deterministically pick the lower case ID.
	rc := s.Recall("aaaa", logic.BitVec{0b11}, 5)
	if rc.Kind != Near || rc.Case.ID != 1 {
		t.Fatalf("tie recall: %+v, want case 1", rc)
	}
}

func TestRecordAssignsSequentialIDs(t *testing.T) {
	s := openMem(t, Options{})
	for i := 0; i < 3; i++ {
		rec, err := s.Record(exactCase("aaaa", []uint64{uint64(1) << i}, i))
		if err != nil {
			t.Fatal(err)
		}
		if rec.ID != int64(i+1) {
			t.Errorf("case %d got ID %d", i, rec.ID)
		}
	}
	cases := s.Cases()
	if len(cases) != 3 || s.Len() != 3 {
		t.Fatalf("Cases() returned %d, Len %d", len(cases), s.Len())
	}
	for i, c := range cases {
		if c.ID != int64(i+1) {
			t.Errorf("Cases()[%d].ID = %d, want ascending", i, c.ID)
		}
	}
}

// TestOpenLoadsPriorCases proves the backend history rebuilds the
// recall index and the ID sequence continues past it.
func TestOpenLoadsPriorCases(t *testing.T) {
	mem := NewMem()
	prior := exactCase("aaaa", []uint64{0b10}, 0)
	prior.ID = 7
	if err := mem.Append(prior); err != nil {
		t.Fatal(err)
	}
	s, err := Open(mem, Options{Clock: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	if rc := s.Recall("aaaa", logic.BitVec{0b10}, 5); rc.Kind != Exact || rc.Case.ID != 7 {
		t.Fatalf("recall of preloaded case: %+v", rc)
	}
	rec, err := s.Record(exactCase("aaaa", []uint64{0b01}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != 8 {
		t.Errorf("ID after preload: %d, want 8", rec.ID)
	}
}

// failingBackend rejects every append.
type failingBackend struct{ Mem }

func (f *failingBackend) Append(Case) error { return fmt.Errorf("disk on fire") }

// TestRecordRollsBackOnAppendError: a failed append must not leak an
// ID or a phantom index entry.
func TestRecordRollsBackOnAppendError(t *testing.T) {
	s, err := Open(&failingBackend{}, Options{Clock: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Record(exactCase("aaaa", []uint64{0b10}, 0)); err == nil {
		t.Fatal("Record over a failing backend succeeded")
	}
	if s.Len() != 0 {
		t.Errorf("failed record left %d cases indexed", s.Len())
	}
	if rc := s.Recall("aaaa", logic.BitVec{0b10}, 5); rc.Kind != Miss {
		t.Errorf("failed record is recallable: %v", rc.Kind)
	}
}

func TestRecallKindString(t *testing.T) {
	for k, want := range map[RecallKind]string{Miss: "miss", Near: "near", Exact: "exact"} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// linearRecall is Recall with the near loop over every case of the
// artifact, skipping the ranked ones, and the exact step as a linear
// scan too: the reference TestNearRecallMatchesLinearScan holds the
// indexed Recall to.
func linearRecall(s *Store, checksum string, sig logic.BitVec, topK int) Recall {
	s.mu.RLock()
	defer s.mu.RUnlock()
	di := s.byDict[checksum]
	if di == nil {
		return Recall{Kind: Miss}
	}
	for _, c := range di.cases {
		if len(c.Signature) == len(sig) && c.sig().Equal(sig) && (c.Exact || c.TopK == topK) {
			return Recall{Kind: Exact, Case: c, Confidence: 1}
		}
	}
	if s.budget < 0 {
		return Recall{Kind: Miss}
	}
	var best *Case
	bestDist := s.budget + 1
	for _, c := range di.cases {
		if len(c.Signature) != len(sig) || !c.Exact {
			continue
		}
		if d := c.sig().Hamming(sig); d < bestDist {
			best, bestDist = c, d
		}
	}
	if best == nil || bestDist == 0 || bestDist > s.budget {
		return Recall{Kind: Miss}
	}
	return Recall{Kind: Near, Case: best, Distance: bestDist, Confidence: 1 - float64(bestDist)/float64(s.budget+1)}
}

// TestNearRecallMatchesLinearScan: over random stores — two artifacts,
// mixed exact and ranked outcomes, one- and two-word signatures drawn
// from a space small enough for duplicates and distance ties — every
// recall verdict equals the all-cases scan's, for each budget, with
// records interleaved and across a reopen of the file store.
func TestNearRecallMatchesLinearScan(t *testing.T) {
	for budget := -1; budget <= 3; budget++ {
		r := rand.New(rand.NewSource(int64(10 + budget)))
		randSig := func() logic.BitVec {
			sig := logic.BitVec{r.Uint64() & 0x3f}
			if r.Intn(3) == 0 {
				sig = append(sig, r.Uint64()&1)
			}
			return sig
		}
		checksums := []string{"aaaa", "bbbb"}
		dir := t.TempDir()
		open := func() *Store {
			s, err := Open(openFileStore(t, dir, FileOptions{SnapshotEvery: 5}), Options{Budget: budget, Clock: fixedClock})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s := open()
		kinds := map[RecallKind]int{}
		for step := range 400 {
			if step == 200 {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = open()
			}
			checksum := checksums[r.Intn(len(checksums))]
			if r.Intn(2) == 0 {
				c := exactCase(checksum, randSig(), r.Intn(8))
				c.Exact = r.Intn(2) == 0
				c.TopK = 1 + r.Intn(3)
				if _, err := s.Record(c); err != nil {
					t.Fatal(err)
				}
				continue
			}
			sig, topK := randSig(), 1+r.Intn(3)
			got, want := s.Recall(checksum, sig, topK), linearRecall(s, checksum, sig, topK)
			if got != want {
				t.Fatalf("budget %d, step %d: Recall(%s, %x, %d) = %+v, the all-cases scan gives %+v",
					budget, step, checksum, sig, topK, got, want)
			}
			kinds[got.Kind]++
		}
		s.Close()
		if kinds[Exact] == 0 || kinds[Miss] == 0 || budget > 0 && kinds[Near] == 0 {
			t.Errorf("budget %d: verdicts %v; want every kind the budget allows", budget, kinds)
		}
	}
}

// BenchmarkRecallNear is a near recall that misses the exact index on
// a 10^5-case artifact of which 1.4% are exact outcomes, the shape of
// the serve-hot store: one pass over the near-servable cases.
func BenchmarkRecallNear(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	mem := NewMem()
	cases := genCases(r, 100_000, faultNames(1000))
	for i := range cases {
		cases[i].Exact = i%70 == 0
		if err := mem.Append(cases[i]); err != nil {
			b.Fatal(err)
		}
	}
	s, err := Open(mem, Options{Clock: fixedClock})
	if err != nil {
		b.Fatal(err)
	}
	// Three flips off an exact-outcome case: outside the default budget
	// of 2, so the scan runs to the end and the verdict is a miss.
	sig := logic.BitVec(slices.Clone(cases[70].Signature))
	sig[0] ^= 0b111
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if rc := s.Recall("671cd543", sig, 5); rc.Kind != Miss {
			b.Fatalf("recall %v, want miss", rc.Kind)
		}
	}
}
