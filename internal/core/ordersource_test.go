package core

import (
	"math/rand"
	"testing"
)

// TestOrderSourceMatchesMathRand gates the lazily seeded source: every
// restart order must be the shuffle rand.New(rand.NewSource(s)) draws.
// Seeds cover the normalization cases (negative, 0, multiples of 2³¹−1,
// ≥ 2³¹) and the order seeds restarts actually use; k > 607 draws past
// one pass of the register, so the feedback words wrap.
func TestOrderSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), 2 * (1<<31 - 1), 1<<62 + 5, -1 << 63, 1<<63 - 1}
	r := rand.New(rand.NewSource(607))
	for len(seeds) < 10000 {
		switch len(seeds) % 4 {
		case 0:
			seeds = append(seeds, r.Int63())
		case 1:
			seeds = append(seeds, -r.Int63())
		case 2:
			seeds = append(seeds, int64(r.Intn(1<<31)))
		default:
			seeds = append(seeds, OrderSeed(int64(len(seeds)), 1+r.Intn(64)))
		}
	}
	sc := newRestartScratch()
	for _, s := range seeds {
		for _, k := range []int{2, 28, 344, 779, 1500} {
			want := make([]int, k)
			for j := range want {
				want[j] = j
			}
			rand.New(rand.NewSource(s)).Shuffle(k, func(a, b int) { want[a], want[b] = want[b], want[a] })
			sc.src.Seed(s)
			got := make([]int, k)
			for j := range got {
				got[j] = j
			}
			sc.rng.Shuffle(k, func(a, b int) { got[a], got[b] = got[b], got[a] })
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("seed %d k %d: order differs from math/rand at %d", s, k, j)
				}
			}
		}
	}
	// restartOrder itself: restart 0 is the natural order, later ones the
	// shuffle of their order seed.
	for i := 0; i < 50; i++ {
		got := append([]int(nil), sc.restartOrder(9, i, 300)...)
		want := make([]int, 300)
		for j := range want {
			want[j] = j
		}
		if i > 0 {
			rand.New(rand.NewSource(OrderSeed(9, i))).Shuffle(300, func(a, b int) { want[a], want[b] = want[b], want[a] })
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("restart %d: order differs from math/rand at %d", i, j)
			}
		}
	}
}
