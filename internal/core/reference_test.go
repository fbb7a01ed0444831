package core

import (
	"context"
	"math/rand"
	"testing"

	"sddict/internal/resp"
)

// procedure1Reference is a literal transcription of the paper's
// Procedure 1 using an explicit pair set P, used to cross-validate the
// partition-based production implementation: identical test order, LOWER
// constant and tie-breaking must yield identical baselines.
func procedure1Reference(m *resp.Matrix, order []int, lower int) ([]int32, int64) {
	type pair [2]int
	p := make(map[pair]bool)
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			p[pair{i, j}] = true
		}
	}
	baselines := make([]int32, m.K)
	for _, j := range order {
		if len(p) == 0 {
			break
		}
		// Step 3: for every z in Z_j compute dist(z), with the LOWER
		// cutoff.
		nc := m.NumClasses(j)
		best := int64(-1)
		bestZ := int32(0)
		consec := 0
		for z := int32(0); z < int32(nc); z++ {
			var dist int64
			for pr := range p {
				a := m.Class[j][pr[0]] == z
				b := m.Class[j][pr[1]] == z
				if a != b {
					dist++
				}
			}
			if dist > best {
				best, bestZ = dist, z
				consec = 0
			} else if dist < best {
				consec++
				if lower > 0 && consec >= lower {
					break
				}
			}
		}
		// Step 4: select and remove distinguished pairs.
		baselines[j] = bestZ
		for pr := range p {
			a := m.Class[j][pr[0]] == bestZ
			b := m.Class[j][pr[1]] == bestZ
			if a != b {
				delete(p, pr)
			}
		}
	}
	return baselines, int64(len(p))
}

// TestProcedure1MatchesReference cross-validates the production
// Procedure 1 against the literal pair-set transcription on random
// matrices, orders and LOWER values.
func TestProcedure1MatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		m := randomMatrix(r, 2+r.Intn(25), 1+r.Intn(8), 5)
		order := r.Perm(m.K)
		lower := r.Intn(4) // 0 = exhaustive, small cutoffs stress the rule
		res := procedure1(context.Background(), m, order, lower, 1, new(Partition), new(distScratch))
		gotBase, gotPairs := res.base, res.indist
		if !res.done {
			t.Fatalf("trial %d: uninterrupted Procedure 1 reported interruption", trial)
		}
		wantBase, wantPairs := procedure1Reference(m, order, lower)
		if gotPairs != wantPairs {
			t.Fatalf("trial %d: %d pairs left, reference %d", trial, gotPairs, wantPairs)
		}
		for j := range gotBase {
			if gotBase[j] != wantBase[j] {
				t.Fatalf("trial %d: baseline for t%d = %d, reference %d",
					trial, j, gotBase[j], wantBase[j])
			}
		}
	}
}
