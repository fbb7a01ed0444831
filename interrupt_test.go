package sddict_test

// End-to-end SIGINT contract for cmd/sdd (DESIGN.md §10): an interrupted
// run must exit with status 130, print the best-so-far report, and leave
// a trace file that parses as JSONL and ends on a checkpoint_save event —
// the durable record of the state the interrupted search got to.
//
// This is the only test that execs a built binary: signal delivery and
// exit statuses cannot be observed in-process. The in-process companion
// (TestInterruptedTraceEndsWithCheckpointSave) covers the same trace
// invariant without the process machinery.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sddict/internal/obs"
)

func TestSddInterruptEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("execs a freshly built binary; skipped in -short mode")
	}
	// Artifacts (trace, metrics, checkpoint) go to the artifact dir so a
	// failing CI leg uploads them for sddstat post-mortems; the binary
	// stays in a throwaway temp dir.
	dir := artifactDir(t)
	bin := filepath.Join(t.TempDir(), "sdd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sdd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/sdd: %v\n%s", err, out)
	}

	// The signal must land inside the restart phase, which lasts a few
	// hundred milliseconds on s953. The first restart_end
	// in the trace marks a folded restart (so the final checkpoint_save is
	// guaranteed), and each event is one durable append, so polling the
	// file gives a reliable cue. If the build still finishes first, one
	// retry absorbs the scheduling fluke.
	for attempt := 1; ; attempt++ {
		tracePath := filepath.Join(dir, "trace.jsonl")
		metricsPath := filepath.Join(dir, "metrics.json")
		os.Remove(tracePath)
		cmd := exec.Command(bin,
			"-circuit", "s953", "-tests", "diag", "-workers", "2",
			"-checkpoint", filepath.Join(dir, "ckpt.json"),
			"-trace-out", tracePath, "-metrics-out", metricsPath,
		)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}

		deadline := time.Now().Add(90 * time.Second)
		for !hasEvent(tracePath, "restart_end") {
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("no restart_end event within 90s; stderr:\n%s", stderr.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}

		err := cmd.Wait()
		if err == nil {
			// The search outran the signal: the run completed cleanly.
			if attempt >= 2 {
				t.Fatal("signal missed the restart phase twice; giving up")
			}
			t.Logf("attempt %d completed before the signal landed; retrying", attempt)
			continue
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("interrupted run: want *exec.ExitError, got %v\nstdout:\n%s", err, stdout.String())
		}
		if code := ee.ExitCode(); code != 130 {
			t.Errorf("exit code = %d, want 130\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
		}

		out := stdout.String()
		if !strings.Contains(out, "INTERRUPTED") {
			t.Errorf("stdout missing best-so-far INTERRUPTED report:\n%s", out)
		}
		if !strings.Contains(out, "observability metrics:") {
			t.Errorf("stdout missing final metrics snapshot:\n%s", out)
		}
		if _, err := os.Stat(metricsPath); err != nil {
			t.Errorf("metrics file not written: %v", err)
		}

		tf, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		defer tf.Close()
		events, err := obs.ReadEvents(tf)
		if err != nil {
			t.Fatalf("interrupted trace does not parse: %v", err)
		}
		if len(events) == 0 {
			t.Fatal("interrupted trace is empty")
		}
		last := events[len(events)-1]
		if last.Type != "checkpoint_save" {
			t.Errorf("trace ends with %q, want checkpoint_save (last event: %+v)", last.Type, last)
		}
		if persisted, _ := last.Fields["persisted"].(bool); !persisted {
			t.Errorf("final checkpoint_save not persisted despite -checkpoint: %+v", last)
		}
		return
	}
}

// hasEvent reports whether the JSONL trace at path currently contains an
// event of the given type. Partial trailing lines (a write racing the
// read) are tolerated: only complete lines are inspected.
func hasEvent(path, typ string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	needle := `"type":"` + typ + `"`
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, needle) {
			return true
		}
	}
	return false
}
