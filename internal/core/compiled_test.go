package core

import (
	"bytes"
	"math/rand"
	"testing"

	"sddict/internal/logic"
)

func buildCompiled(t *testing.T, r *rand.Rand, extra bool) (*Dictionary, *Compiled) {
	t.Helper()
	m := randomMatrix(r, 20+r.Intn(30), 3+r.Intn(10), 5)
	opts := DefaultOptions
	opts.Seed = r.Int63()
	opts.Calls1 = 3
	opts.MaxRestarts = 6
	var d *Dictionary
	if extra {
		d, _ = mustBuildSameDiffMulti(t, m, opts)
	} else {
		d, _ = mustBuildSameDiff(t, m, opts)
	}
	c, err := d.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return d, c
}

// TestCompileMatchesDictionary: the compiled form must reproduce the
// dictionary's rows, baseline vectors and (minimized) size.
func TestCompileMatchesDictionary(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		d, c := buildCompiled(t, r, trial%3 == 0)
		m := d.M
		if len(c.Rows) != m.N || c.NumTests != m.K || c.Outputs != m.M {
			t.Fatalf("trial %d: dims mismatch", trial)
		}
		for i := 0; i < m.N; i++ {
			if !c.Rows[i].Equal(d.Row(i)) {
				t.Fatalf("trial %d: row %d differs", trial, i)
			}
		}
		for j := 0; j < m.K; j++ {
			if !c.Baseline[j].Equal(d.BaselineVector(j)) {
				t.Fatalf("trial %d: baseline %d differs", trial, j)
			}
			if !c.FaultFree[j].Equal(m.Vecs[j][0]) {
				t.Fatalf("trial %d: fault-free %d differs", trial, j)
			}
		}
		if c.SizeBits() != d.SizeBits() {
			t.Fatalf("trial %d: compiled size %d, dictionary size %d",
				trial, c.SizeBits(), d.SizeBits())
		}
	}
}

// TestCompiledSignatureAndCandidates: diagnosing with the compiled form
// must reproduce the dictionary's groups — feeding fault i's own stored
// responses yields exactly the faults sharing its row.
func TestCompiledSignatureAndCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	d, c := buildCompiled(t, r, false)
	m := d.M
	for i := 0; i < m.N; i += 3 {
		// The observed responses of fault i are its stored output vectors.
		observed := make([]logic.BitVec, m.K)
		for j := 0; j < m.K; j++ {
			observed[j] = m.Vecs[j][m.Class[j][i]]
		}
		sig, err := c.Signature(observed)
		if err != nil {
			t.Fatal(err)
		}
		cands := c.Candidates(sig)
		found := false
		for _, ci := range cands {
			if ci == i {
				found = true
			}
			if !c.Rows[ci].Equal(c.Rows[i]) {
				t.Fatalf("candidate %d has a different row than %d", ci, i)
			}
		}
		if !found {
			t.Fatalf("fault %d not among its own candidates", i)
		}
	}
}

// TestCompiledRoundTrip: WriteTo/ReadCompiled must preserve everything.
func TestCompiledRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(87))
	for trial := 0; trial < 10; trial++ {
		_, c := buildCompiled(t, r, trial%2 == 1)
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCompiled(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != c.Kind || got.NumTests != c.NumTests || got.Outputs != c.Outputs {
			t.Fatalf("trial %d: header fields differ", trial)
		}
		if len(got.Rows) != len(c.Rows) {
			t.Fatalf("trial %d: row count differs", trial)
		}
		for i := range c.Rows {
			if !got.Rows[i].Equal(c.Rows[i]) {
				t.Fatalf("trial %d: row %d differs after round trip", trial, i)
			}
		}
		for j := 0; j < c.NumTests; j++ {
			if !got.Baseline[j].Equal(c.Baseline[j]) || !got.FaultFree[j].Equal(c.FaultFree[j]) {
				t.Fatalf("trial %d: vectors differ after round trip", trial)
			}
		}
		if (got.ExtraBaseline == nil) != (c.ExtraBaseline == nil) {
			t.Fatalf("trial %d: extra-baseline presence differs", trial)
		}
		if got.SizeBits() != c.SizeBits() {
			t.Fatalf("trial %d: size differs after round trip", trial)
		}
	}
}

func TestReadCompiledRejectsGarbage(t *testing.T) {
	if _, err := ReadCompiled(bytes.NewReader([]byte("not a dictionary at all........."))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadCompiled(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestCompileRejectsFull(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	m := randomMatrix(r, 10, 4, 3)
	if _, err := NewFull(m).Compile(); err == nil {
		t.Fatal("full dictionary compiled")
	}
}
