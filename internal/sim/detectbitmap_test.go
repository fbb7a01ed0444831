package sim

import (
	"math/rand"
	"testing"
)

// TestDetectBitmapsTranspose checks the word-parallel transpose against
// the naive per-(pattern, fault) derivation, including the partial-batch
// masking of pattern bits past count.
func TestDetectBitmapsTranspose(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		nf := 1 + r.Intn(150) // crosses the 64-fault word boundary
		count := 1 + r.Intn(64)
		detect := make([]uint64, nf)
		for i := range detect {
			// Set bits beyond count too: the transpose must mask them out.
			detect[i] = r.Uint64()
		}
		out := DetectBitmaps(detect, count)
		if len(out) != count {
			t.Fatalf("trial %d: %d pattern rows, want %d", trial, len(out), count)
		}
		words := (nf + 63) / 64
		for p := 0; p < count; p++ {
			if len(out[p]) != words {
				t.Fatalf("trial %d pattern %d: %d words, want %d", trial, p, len(out[p]), words)
			}
			for i := 0; i < nf; i++ {
				got := out[p][i>>6]>>(uint(i)&63)&1 == 1
				want := detect[i]>>uint(p)&1 == 1
				if got != want {
					t.Fatalf("trial %d pattern %d fault %d: bit %v, want %v", trial, p, i, got, want)
				}
			}
			// No bits may be set past the fault count.
			if nf%64 != 0 {
				if extra := out[p][words-1] >> uint(nf%64); extra != 0 {
					t.Fatalf("trial %d pattern %d: stray bits past fault count: %#x", trial, p, extra)
				}
			}
		}
	}
}
