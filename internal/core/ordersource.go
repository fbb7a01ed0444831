package core

import (
	"math/rand"
	"sync"
)

// orderSource is an exact replica of math/rand's seeded source (an
// additive lagged Fibonacci generator over a 607-word register) that
// fills its register lazily. rand.NewSource computes all 607 register
// words on every Seed, which costs more than a restart's shuffle of a
// few hundred tests draws from it. Here word i is computed on first read
// from the seed's Lehmer sequence, x_k = x_0·48271^k mod (2³¹−1), whose
// terms 21+3i, 22+3i and 23+3i math/rand mixes into it with word i of its
// fixed "cooked" table. A restart's shuffle then draws exactly the
// numbers rand.NewSource(seed) would (TestOrderSourceMatchesMathRand).
type orderSource struct {
	tap, feed int
	x0        int64
	t         *lfgTables
	vec       [lfgLen]int64
	at        [lfgLen]uint32 // vec[i] is valid when at[i] == gen
	gen       uint32
}

const (
	lfgLen  = 607
	lfgTap  = 273
	lehmerM = 1<<31 - 1
	lehmerA = 48271
)

// lfgTables are the seed-independent inputs of a register word, built on
// the first Seed so programs that never shuffle never build them.
type lfgTables struct {
	// pow[k] = 48271^k mod (2³¹−1) for every k a register word reads.
	pow []int64
	// cooked is math/rand's cooked table, recovered from a seeded source.
	cooked [lfgLen]int64
}

var tables = sync.OnceValue(func() *lfgTables {
	t := &lfgTables{pow: make([]int64, 24+3*lfgLen)}
	t.pow[0] = 1
	for k := 1; k < len(t.pow); k++ {
		t.pow[k] = t.pow[k-1] * lehmerA % lehmerM
	}
	t.readCooked()
	return t
})

// readCooked recovers math/rand's cooked table without copying it. After
// lfgLen draws every register word has been overwritten by a draw, so the
// draws give the whole register; undoing the additions in reverse order
// yields the register as seeded, and XOR with the seed's Lehmer words
// leaves the table.
func (t *lfgTables) readCooked() {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	vec := &t.cooked
	var taps, feeds [lfgLen]int
	tap, feed := 0, lfgLen-lfgTap
	for c := range vec {
		tap, feed = (tap+lfgLen-1)%lfgLen, (feed+lfgLen-1)%lfgLen
		taps[c], feeds[c] = tap, feed
		vec[feed] = int64(src.Uint64())
	}
	for c := lfgLen - 1; c >= 0; c-- {
		vec[feeds[c]] -= vec[taps[c]]
	}
	for i := range vec {
		vec[i] ^= t.lehmerWord(seed, i)
	}
}

// Seed resets the source to rand.NewSource(seed)'s state.
func (s *orderSource) Seed(seed int64) {
	s.tap, s.feed = 0, lfgLen-lfgTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.t = seed, tables()
	s.gen++
}

// lehmerWord returns the Lehmer-sequence part of register word i for a
// normalized seed x0: the word before math/rand XORs in its cooked table.
func (t *lfgTables) lehmerWord(x0 int64, i int) int64 {
	x := func(k int) int64 { return x0 * t.pow[k] % lehmerM }
	return x(21+3*i)<<40 ^ x(22+3*i)<<20 ^ x(23+3*i)
}

// word returns register word i, computing its seeded value on first read.
func (s *orderSource) word(i int) int64 {
	if s.at[i] != s.gen {
		s.at[i], s.vec[i] = s.gen, s.t.lehmerWord(s.x0, i)^s.t.cooked[i]
	}
	return s.vec[i]
}

// Uint64 draws the next register sum, as math/rand's source does.
func (s *orderSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfgLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfgLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 draws the next value with the sign bit cleared.
func (s *orderSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
