package analyze

import (
	"math"
	"testing"

	"sddict/internal/obs"
)

func histOf(t *testing.T, vs ...int64) obs.HistSnapshot {
	t.Helper()
	m := obs.NewMetrics()
	for _, v := range vs {
		m.Observe(obs.RestartIndist, v)
	}
	return m.Snapshot().Histograms["restart_indist"]
}

func TestPercentileInterpolation(t *testing.T) {
	// Buckets: [1,1]x1, [2,3]x2, [4,7]x4 — 7 samples total.
	hs := histOf(t, 1, 2, 3, 4, 5, 6, 7)

	// rank(0.5) = 3.5: one past the [2,3] bucket's cumulative 3, an
	// eighth of the way into [4,7] -> 4 + 0.125*3 = 4.375.
	if got := Percentile(hs, 0.50); got != 4.375 {
		t.Errorf("p50 = %v, want 4.375", got)
	}
	// rank(1.0) = 7 lands exactly on the last bucket's cumulative edge.
	if got := Percentile(hs, 1.0); got != 7 {
		t.Errorf("p100 = %v, want 7", got)
	}
	// Out-of-range quantiles clamp.
	if got := Percentile(hs, 1.5); got != 7 {
		t.Errorf("clamped p150 = %v, want 7", got)
	}
	if got, zero := Percentile(hs, -0.5), Percentile(hs, 0); got != zero {
		t.Errorf("negative quantile = %v, want clamp to q=0 value %v", got, zero)
	}
}

func TestPercentileZeroBucket(t *testing.T) {
	hs := histOf(t, 0, 0, 0, 8)
	// Three of four samples are exactly zero; the degenerate [0,0]
	// bucket must report its boundary, not interpolate.
	if got := Percentile(hs, 0.50); got != 0 {
		t.Errorf("p50 of mostly-zero histogram = %v, want 0", got)
	}
	if got := Percentile(hs, 0.99); got < 8 || got > 15 {
		t.Errorf("p99 = %v, want within top bucket [8,15]", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(obs.HistSnapshot{}, 0.5); got != 0 {
		t.Errorf("empty histogram percentile = %v, want 0", got)
	}
}

// TestPercentileDegenerateHistograms pins the estimator on the shapes
// a recall-latency histogram routinely has early in a serve run: empty,
// a single sample, one bucket, everything in the overflow bucket. No
// shape may yield NaN or a value outside the occupied bucket range.
func TestPercentileDegenerateHistograms(t *testing.T) {
	cases := []struct {
		name string
		hs   obs.HistSnapshot
		lo   int64 // every quantile must land in [lo, hi]
		hi   int64
	}{
		{"single sample", histOf(t, 5), 4, 7},
		{"single zero sample", histOf(t, 0), 0, 0},
		{"single bucket many samples", histOf(t, 4, 5, 6, 7, 4, 7), 4, 7},
		{"all in one large bucket", histOf(t, 1<<40, 1<<40+3, 1<<40+9), 1 << 40, 1<<41 - 1},
		{"handcrafted inverted bucket", obs.HistSnapshot{
			Count: 2, Buckets: []obs.HistBucket{{Lo: 8, Hi: 4, N: 2}},
		}, 8, 8}, // degenerate metadata: report Lo, never interpolate backwards
	}
	for _, tc := range cases {
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			got := Percentile(tc.hs, q)
			if math.IsNaN(got) {
				t.Errorf("%s: q=%v is NaN", tc.name, q)
				continue
			}
			if got < float64(tc.lo) || got > float64(tc.hi) {
				t.Errorf("%s: q=%v = %v, want within [%d, %d]", tc.name, q, got, tc.lo, tc.hi)
			}
		}
	}
}

// TestPercentileNaNQuantile: a NaN q fails every ordered comparison, so
// a naive clamp would let it skip all buckets and over-report the top
// edge; it must clamp to q=0 instead.
func TestPercentileNaNQuantile(t *testing.T) {
	hs := histOf(t, 1, 2, 3, 4, 5, 6, 7)
	got := Percentile(hs, math.NaN())
	if math.IsNaN(got) {
		t.Fatal("NaN quantile produced NaN")
	}
	if want := Percentile(hs, 0); got != want {
		t.Errorf("NaN quantile = %v, want the q=0 value %v (not the top edge %v)",
			got, want, Percentile(hs, 1))
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(histOf(t, 1, 2, 3, 4))
	if s.Count != 4 || s.Sum != 10 {
		t.Errorf("summary count/sum = %d/%d, want 4/10", s.Count, s.Sum)
	}
	if s.P50 <= 0 || s.P90 < s.P50 || s.P99 < s.P90 {
		t.Errorf("percentiles not monotone: %+v", s)
	}
}
