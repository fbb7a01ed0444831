package experiment

import (
	"testing"

	"sddict/internal/atpg"
	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/gen"
)

// TestRowSmallCircuit runs the whole pipeline end to end on a small
// profile for both test-set types and checks the paper's structural
// claims on the resulting row.
func TestRowSmallCircuit(t *testing.T) {
	for _, tt := range []TestSetType{Diagnostic, TenDetect} {
		row, err := RunProfileRow("s298", tt, Config{Seed: 7})
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
	diag, err := RunProfileRow("s344", Diagnostic, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tdet, err := RunProfileRow("s344", TenDetect, Config{Seed: 3})
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
	if _, err := RunProfileRow("nope", Diagnostic, Config{}); err == nil {
		t.Error("unknown profile accepted")
	}
	c := gen.Profiles["s27"].MustGenerate(1)
	if _, err := Prepare(c, "weird", Config{}); err == nil {
		t.Error("unknown test-set type accepted")
	}
}

// TestPrepareLargeCircuitPaths smoke-tests the large-circuit knob scaling
// with tiny generation budgets so it stays fast.
func TestPrepareLargeCircuitPaths(t *testing.T) {
	tiny := atpg.DefaultConfig(2)
	tiny.Seed = 1
	tiny.MaxRandomBatches = 3
	tiny.UselessBatchLimit = 1
	tiny.TopUpRounds = 0
	pr, err := PrepareProfile("s1423", TenDetect, Config{Seed: 1, DetectCfg: &tiny})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Matrix.K == 0 || pr.Matrix.N == 0 {
		t.Fatal("degenerate matrix")
	}

	dtiny := atpg.DefaultConfig(1)
	dtiny.Seed = 1
	dtiny.MaxRandomBatches = 2
	dtiny.UselessBatchLimit = 1
	dtiny.TopUpRounds = 0
	dcfg := atpg.DefaultDiagConfig()
	dcfg.MaxRounds = 1
	dcfg.MaxMiterCalls = 1
	dcfg.MaxRandomBatches = 1
	prd, err := PrepareProfile("s1423", Diagnostic, Config{Seed: 1, DetectCfg: &dtiny, DiagCfg: &dcfg})
	if err != nil {
		t.Fatal(err)
	}
	row := BuildRow(prd, Diagnostic, Config{Seed: 1, DictOpts: &core.Options{Calls1: 1, MaxRestarts: 1}})
	if row.Dict == nil || row.IndSDFinal < row.IndFull {
		t.Fatalf("bad row: %+v", row)
	}
}

// TestPipelineTestSetChecksums pins the test sets of the benchmark's
// diagnostic rows (s208/diag and s298/diag at seed 1, as sdd builds and
// publishes them) by their published test-set checksum. A change that
// moves diagnostic generation, including its random stream, fails here
// as well as in the benchmark's pins; re-pin both together, with per-row
// evidence.
func TestPipelineTestSetChecksums(t *testing.T) {
	for _, tc := range []struct {
		circuit  string
		tests    int
		checksum string
	}{
		{"s208", 28, "e85ee132"},
		{"s298", 27, "50e49bf4"},
	} {
		cfg := Config{Seed: 1, Workers: 1}
		pr, err := PrepareProfile(tc.circuit, Diagnostic, cfg)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := BuildRow(pr, Diagnostic, cfg).Dict.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if got := dictio.TestSetChecksum(compiled); pr.Tests.Len() != tc.tests || got != tc.checksum {
			t.Errorf("%s/diag: %d tests, checksum %s; want %d tests, checksum %s",
				tc.circuit, pr.Tests.Len(), got, tc.tests, tc.checksum)
		}
	}
}
