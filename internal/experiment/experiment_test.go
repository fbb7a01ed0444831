package experiment

import (
	"context"
	"testing"

	"sddict/internal/dictio"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/resp"
)

// runProfileRow runs the whole pipeline for one Table-6 row.
func runProfileRow(name string, tt TestSetType, cfg Config) (Row, error) {
	pr, err := PrepareProfileCtx(context.Background(), name, tt, cfg)
	if err != nil {
		return Row{}, err
	}
	return BuildRowCtx(context.Background(), pr, tt, cfg)
}

// TestRowSmallCircuit runs the whole pipeline end to end on a small
// profile for both test-set types and checks the paper's structural
// claims on the resulting row.
func TestRowSmallCircuit(t *testing.T) {
	for _, tt := range []TestSetType{Diagnostic, TenDetect} {
		row, err := runProfileRow("s298", tt, Config{Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", tt, err)
		}
		if row.Tests <= 0 || row.Faults <= 0 {
			t.Fatalf("%s: degenerate row %+v", tt, row)
		}
		// Size ordering (paper Section 2): p/f < s/d << full.
		if !(row.SizePF < row.SizeSD && row.SizeSD < row.SizeFull) {
			t.Errorf("%s: size ordering violated: %d / %d / %d", tt, row.SizePF, row.SizeSD, row.SizeFull)
		}
		if row.SizeFull != int64(row.Tests)*int64(row.Faults)*int64(row.Outputs) {
			t.Errorf("%s: full size accounting off", tt)
		}
		if row.SizeSD != int64(row.Tests)*int64(row.Faults+row.Outputs) {
			t.Errorf("%s: s/d size accounting off", tt)
		}
		// Resolution ordering: full <= s/d final <= p/f.
		if row.IndFull > row.IndSDFinal || row.IndSDFinal > row.IndPF {
			t.Errorf("%s: resolution ordering violated: full=%d sd=%d pf=%d",
				tt, row.IndFull, row.IndSDFinal, row.IndPF)
		}
		// Procedure 2 never worsens Procedure 1.
		if row.IndSDRepl > row.IndSDRand {
			t.Errorf("%s: Procedure 2 worsened: %d -> %d", tt, row.IndSDRand, row.IndSDRepl)
		}
		// Minimized storage never exceeds nominal.
		if row.SizeSDMinimized > row.SizeSD {
			t.Errorf("%s: minimized size %d > nominal %d", tt, row.SizeSDMinimized, row.SizeSD)
		}
		t.Logf("%s: %d tests, %d faults, ind full/pf/sd = %d/%d/%d (%s)",
			tt, row.Tests, row.Faults, row.IndFull, row.IndPF, row.IndSDFinal, row.Elapsed)
	}
}

// TestDiagBeatsTenDetectOnFullDictionary reproduces the paper's
// observation that a diagnostic test set leaves fewer indistinguished
// pairs under a full dictionary than a 10-detection set (claim 5 in
// DESIGN.md), while the 10-detection set is larger (start of claim 4).
func TestDiagBeatsTenDetectOnFullDictionary(t *testing.T) {
	diag, err := runProfileRow("s344", Diagnostic, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tdet, err := runProfileRow("s344", TenDetect, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if diag.IndFull > tdet.IndFull {
		t.Errorf("diag full-dictionary pairs %d > 10det %d", diag.IndFull, tdet.IndFull)
	}
	if tdet.Tests <= diag.Tests {
		t.Logf("note: 10det (%d tests) not larger than diag (%d tests) on this circuit",
			tdet.Tests, diag.Tests)
	}
}

func TestPrepareUnknownInputs(t *testing.T) {
	if _, err := runProfileRow("nope", Diagnostic, Config{}); err == nil {
		t.Error("unknown profile accepted")
	}
	c := gen.Profiles["s27"].MustGenerate(1)
	if _, err := PrepareCtx(context.Background(), c, "weird", Config{}); err == nil {
		t.Error("unknown test-set type accepted")
	}
}

// TestPrepareLargeCircuitPaths smoke-tests s1423, the largest circuit the
// tests run end to end: both test-set types prepare, and the
// diagnostic row builds.
func TestPrepareLargeCircuitPaths(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Seed: 1}
	pr, err := PrepareProfileCtx(ctx, "s1423", TenDetect, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Matrix.K == 0 || pr.Matrix.N == 0 {
		t.Fatal("degenerate matrix")
	}
	prd, err := PrepareProfileCtx(ctx, "s1423", Diagnostic, cfg)
	if err != nil {
		t.Fatal(err)
	}
	row, err := BuildRowCtx(ctx, prd, Diagnostic, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.Dict == nil || row.IndSDFinal < row.IndFull {
		t.Fatalf("bad row: %+v", row)
	}
}

// TestPipelineTestSetChecksums pins the benchmark's pipeline slice
// (s208/diag, s298/diag and s344/10det at seed 1, as sdd builds and
// publishes them) by test count, published test-set checksum, the three
// dictionaries' indistinguished pairs and the restart count — every
// figure the benchmark's output check compares, with the values of
// perfbench/pins.json. A change that moves test generation, including
// its random stream, or the dictionary search fails here as well as in
// the benchmark; re-pin both together, with per-row evidence.
func TestPipelineTestSetChecksums(t *testing.T) {
	for _, tc := range []struct {
		circuit      string
		tt           TestSetType
		tests        int
		checksum     string
		full, pf, sd int64
		restarts     int
	}{
		{"s208", Diagnostic, 28, "e85ee132", 23, 150, 107, 163},
		{"s298", Diagnostic, 27, "50e49bf4", 102, 320, 284, 177},
		{"s344", TenDetect, 344, "8d848fdd", 1168, 1428, 1168, 1},
	} {
		cfg := Config{Seed: 1, Workers: 1}
		pr, err := PrepareProfileCtx(context.Background(), tc.circuit, tc.tt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		row, err := BuildRowCtx(context.Background(), pr, tc.tt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := row.Dict.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if got := dictio.TestSetChecksum(compiled); pr.Tests.Len() != tc.tests || got != tc.checksum {
			t.Errorf("%s/%s: %d tests, checksum %s; want %d tests, checksum %s",
				tc.circuit, tc.tt, pr.Tests.Len(), got, tc.tests, tc.checksum)
		}
		if row.IndFull != tc.full || row.IndPF != tc.pf || row.IndSDFinal != tc.sd || row.BuildStats.Restarts != tc.restarts {
			t.Errorf("%s/%s: full/pf/sd %d/%d/%d over %d restarts; want %d/%d/%d over %d",
				tc.circuit, tc.tt, row.IndFull, row.IndPF, row.IndSDFinal, row.BuildStats.Restarts,
				tc.full, tc.pf, tc.sd, tc.restarts)
		}
	}
}

// TestPrepareDiagMatrixMatchesFullCapture: a diagnostic row captures
// only the tests diagnosis appended to its base set and reuses the base
// matrix; the result must equal capturing the final set whole.
func TestPrepareDiagMatrixMatchesFullCapture(t *testing.T) {
	for _, name := range []string{"s298", "s953"} {
		pr, err := PrepareProfileCtx(context.Background(), name, Diagnostic, Config{Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := resp.BuildObsCtx(context.Background(), 1, netlist.NewScanView(pr.Circuit), pr.Faults, pr.Tests, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := pr.Matrix
		if got.N != want.N || got.K != want.K || got.M != want.M {
			t.Fatalf("%s: dims %d/%d/%d, whole capture %d/%d/%d", name, got.N, got.K, got.M, want.N, want.K, want.M)
		}
		for j := 0; j < want.K; j++ {
			if got.NumClasses(j) != want.NumClasses(j) {
				t.Fatalf("%s test %d: %d classes, whole capture %d", name, j, got.NumClasses(j), want.NumClasses(j))
			}
			for i := range want.Class[j] {
				if got.Class[j][i] != want.Class[j][i] {
					t.Fatalf("%s test %d fault %d: class %d, whole capture %d", name, j, i, got.Class[j][i], want.Class[j][i])
				}
			}
			for z := range want.Vecs[j] {
				if !got.Vecs[j][z].Equal(want.Vecs[j][z]) {
					t.Fatalf("%s test %d class %d: vector differs from the whole capture", name, j, z)
				}
			}
		}
	}
}
