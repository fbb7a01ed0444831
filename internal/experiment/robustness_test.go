package experiment

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// prepareSmall runs the front half once on a small profile; helpers below
// reuse it to exercise the back half's failure modes cheaply.
func prepareSmall(t *testing.T) *Prepared {
	t.Helper()
	pr, err := PrepareProfileCtx(context.Background(), "s27", Diagnostic, Config{Seed: 7})
	if err != nil {
		t.Fatalf("PrepareProfileCtx: %v", err)
	}
	return pr
}

// TestBuildRowCtxRecoversPanic: a panic anywhere inside the back half
// (here a nil Prepared) must surface as a *StageError with the stage and
// captured stack, not crash the caller.
func TestBuildRowCtxRecoversPanic(t *testing.T) {
	_, err := BuildRowCtx(context.Background(), nil, Diagnostic, Config{})
	if err == nil {
		t.Fatalf("BuildRowCtx(nil) returned no error")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *StageError: %v", err, err)
	}
	if se.Stage != StageDictionary {
		t.Errorf("Stage = %q, want %q", se.Stage, StageDictionary)
	}
	if len(se.Stack) == 0 {
		t.Errorf("recovered panic carries no stack")
	}
	if se.Unwrap() == nil {
		t.Errorf("StageError.Unwrap() = nil")
	}
}

// TestBuildRowCtxInvalidOptions: validation errors come back as errors,
// not panics, and identify the dictionary stage.
func TestBuildRowCtxInvalidOptions(t *testing.T) {
	pr := prepareSmall(t)
	_, err := BuildRowCtx(context.Background(), pr, Diagnostic, Config{Seed: 7, Workers: -1})
	if err == nil {
		t.Fatalf("invalid Workers accepted")
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageDictionary {
		t.Fatalf("error = %v, want *StageError in dictionary stage", err)
	}
}

// TestBuildRowCtxInterrupted: a context dead on arrival still produces a
// usable Row — explicit RowInterrupted status, valid dictionary, never
// worse than pass/fail.
func TestBuildRowCtxInterrupted(t *testing.T) {
	pr := prepareSmall(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	row, err := BuildRowCtx(ctx, pr, Diagnostic, Config{Seed: 7})
	if err != nil {
		t.Fatalf("BuildRowCtx: %v", err)
	}
	if row.Status != RowInterrupted {
		t.Fatalf("Status = %q, want %q", row.Status, RowInterrupted)
	}
	if row.Dict == nil {
		t.Fatalf("interrupted row has no dictionary")
	}
	if !row.BuildStats.Interrupted {
		t.Errorf("BuildStats.Interrupted not set")
	}
	if row.IndSDFinal > row.IndPF {
		t.Errorf("interrupted dictionary (%d) worse than pass/fail (%d)", row.IndSDFinal, row.IndPF)
	}
}

// TestPrepareCtxCancelled: the front half cannot degrade (a partial matrix
// would corrupt the dictionaries), so cancellation must be an error.
func TestPrepareCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PrepareProfileCtx(ctx, "s27", Diagnostic, Config{Seed: 7})
	if err == nil {
		t.Fatalf("cancelled Prepare succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// TestBuildRowCheckpointLifecycle: with CheckpointPath set, a completed
// build leaves no checkpoint file (nor the spare its rewrites kept)
// behind, and an interrupted one leaves a checkpoint that a rerun of the
// same configuration resumes from.
func TestBuildRowCheckpointLifecycle(t *testing.T) {
	pr := prepareSmall(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "row.ckpt")
	cfg := Config{Seed: 7, CheckpointPath: path}

	// Interrupted run: the checkpoint must survive.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	row, err := BuildRowCtx(ctx, pr, Diagnostic, cfg)
	if err != nil {
		t.Fatalf("interrupted BuildRowCtx: %v", err)
	}
	if row.Status != RowInterrupted {
		t.Fatalf("Status = %q, want interrupted", row.Status)
	}
	// A context dead on arrival checkpoints nothing (no restart finished),
	// so only assert survival if a file was written.
	ckptExisted := fileExists(path)

	// Completed run: resumes if possible, and the file must be gone after.
	row, err = BuildRowCtx(context.Background(), pr, Diagnostic, cfg)
	if err != nil {
		t.Fatalf("BuildRowCtx: %v", err)
	}
	if row.Status != RowComplete {
		t.Fatalf("Status = %q, want complete", row.Status)
	}
	if ckptExisted && !row.BuildStats.Resumed {
		t.Errorf("checkpoint existed but the rerun did not resume from it")
	}
	if fileExists(path) {
		t.Errorf("checkpoint file survives a completed build")
	}
	if row.BuildStats.Restarts < 2 {
		t.Fatalf("%d restarts: too few checkpoint writes to keep a spare", row.BuildStats.Restarts)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("completed build left %v behind (err %v)", left, err)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
