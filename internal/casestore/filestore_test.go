package casestore

// Durability tests for the file backend: journal round-trips, the full
// truncation matrix over every byte offset of the journal (a crash-torn
// tail must never fail the open, only shorten the history), corruption
// verdicts for damage that cannot be a crash artifact, snapshot
// rotation (and its failure), the crash window between snapshot and
// truncate, reopen equality across both decode paths, the spliced
// rotation against a full re-encoding, and the rotation benchmark.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sddict/internal/faultfs"
	"sddict/internal/logic"
)

// openFileStore opens dir and fails the test on error.
func openFileStore(t *testing.T, dir string, opt FileOptions) *FileStore {
	t.Helper()
	f, err := OpenDir(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// appendCases journals n exact cases with IDs 1..n.
func appendCases(t *testing.T, f *FileStore, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		c := exactCase("aaaa", []uint64{uint64(i)}, i)
		c.ID = int64(i)
		if err := f.Append(c); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func caseIDs(cases []Case) []int64 {
	ids := make([]int64, len(cases))
	for i, c := range cases {
		ids[i] = c.ID
	}
	return ids
}

func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := openFileStore(t, dir, FileOptions{SnapshotEvery: -1})
	appendCases(t, f, 3)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g := openFileStore(t, dir, FileOptions{SnapshotEvery: -1})
	cases, err := g.Cases()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("reloaded %d cases, want 3 (ids %v)", len(cases), caseIDs(cases))
	}
	for i, c := range cases {
		if c.ID != int64(i+1) || len(c.Candidates) != 1 || c.Candidates[0].Fault != i+1 {
			t.Errorf("case %d reloaded as %+v", i+1, c)
		}
	}
}

// TestJournalTruncationMatrix cuts the journal at every byte offset:
// every prefix must open without error — a torn tail is the one damage
// a crash legitimately produces — and yield exactly the cases whose
// lines survived intact (a final line missing only its newline still
// counts: the append's single write made it durable).
func TestJournalTruncationMatrix(t *testing.T) {
	src := t.TempDir()
	f := openFileStore(t, src, FileOptions{SnapshotEvery: -1})
	appendCases(t, f, 3)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(src, journalName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3", len(lines))
	}

	for cut := 0; cut <= len(journal); cut++ {
		prefix := journal[:cut]
		// Expected survivors: every line fully inside the prefix, plus a
		// final line whose content is complete but whose newline was cut.
		want, off := 0, 0
		for _, line := range lines {
			if off+len(line) <= cut || off+len(line)-1 == cut {
				want++
			}
			off += len(line)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := OpenDir(dir, FileOptions{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("cut %d/%d: open failed: %v", cut, len(journal), err)
		}
		cases, _ := g.Cases()
		if len(cases) != want {
			t.Errorf("cut %d/%d: loaded %d cases, want %d (ids %v)",
				cut, len(journal), len(cases), want, caseIDs(cases))
		}
		for i, c := range cases {
			if c.ID != int64(i+1) {
				t.Errorf("cut %d: survivor %d has ID %d, want the uncut prefix", cut, i, c.ID)
			}
		}
		g.Close()
	}
}

// TestJournalCorruptLineRejected: a malformed line that IS
// newline-terminated was fully written and then damaged — that is
// corruption, not a crash, and must fail loudly.
func TestJournalCorruptLineRejected(t *testing.T) {
	dir := t.TempDir()
	f := openFileStore(t, dir, FileOptions{SnapshotEvery: -1})
	appendCases(t, f, 1)
	f.Close()
	j, err := os.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Write([]byte("{definitely not json}\n")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	if _, err := OpenDir(dir, FileOptions{SnapshotEvery: -1}); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("open over a newline-terminated bad line: %v, want ErrCorruptStore", err)
	}
}

// TestSnapshotCorruptRejected: the snapshot is written atomically, so
// any damage is bit rot — never tolerated silently.
func TestSnapshotCorruptRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte("[{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, FileOptions{}); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("open over a damaged snapshot: %v, want ErrCorruptStore", err)
	}
}

// TestSnapshotRotation: every SnapshotEvery appends the journal folds
// into an atomic snapshot and truncates; the full history survives a
// reopen and the journal only holds the unsnapshotted tail.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	f := openFileStore(t, dir, FileOptions{SnapshotEvery: 2})
	appendCases(t, f, 5)
	f.Close()

	snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatalf("snapshot after rotation: %v", err)
	}
	var snapped []Case
	if err := json.Unmarshal(snap, &snapped); err != nil {
		t.Fatal(err)
	}
	if len(snapped) != 4 {
		t.Errorf("snapshot holds %d cases, want 4 (rotations after appends 2 and 4)", len(snapped))
	}
	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte("\n")); n != 1 {
		t.Errorf("journal holds %d lines after rotation, want only the unsnapshotted case 5", n)
	}

	g := openFileStore(t, dir, FileOptions{SnapshotEvery: 2})
	cases, _ := g.Cases()
	if len(cases) != 5 {
		t.Fatalf("reopen after rotation: %d cases, want 5 (ids %v)", len(cases), caseIDs(cases))
	}
}

// TestCrashBetweenSnapshotAndTruncate: the rotation order (snapshot
// first, truncate second) means a crash in between duplicates cases
// across the two files; the dedup-by-ID at open makes that harmless.
func TestCrashBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	f := openFileStore(t, dir, FileOptions{SnapshotEvery: -1})
	appendCases(t, f, 3)
	f.Close()
	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: snapshot holds cases 1-2, the journal
	// still holds all three lines.
	var all []Case
	g := openFileStore(t, dir, FileOptions{SnapshotEvery: -1})
	if all, err = g.Cases(); err != nil || len(all) != 3 {
		t.Fatalf("precondition: %d cases (%v)", len(all), err)
	}
	g.Close()
	snap, err := json.Marshal(all[:2])
	if err != nil {
		t.Fatal(err)
	}
	crash := t.TempDir()
	if err := os.WriteFile(filepath.Join(crash, snapshotName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crash, journalName), journal, 0o644); err != nil {
		t.Fatal(err)
	}

	h := openFileStore(t, crash, FileOptions{SnapshotEvery: -1})
	cases, _ := h.Cases()
	if len(cases) != 3 {
		t.Fatalf("after crash window: %d cases, want 3 deduped (ids %v)", len(cases), caseIDs(cases))
	}
	for i, c := range cases {
		if c.ID != int64(i+1) {
			t.Errorf("case %d has ID %d after dedup", i, c.ID)
		}
	}
}

// TestTornWriteRecovery drives the faultfs torn-tail injection the
// chaos leg uses: truncating the journal mid-line loses exactly that
// final case and nothing else, even with a snapshot in play.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	f := openFileStore(t, dir, FileOptions{SnapshotEvery: 2})
	appendCases(t, f, 5) // snapshot holds 1-4, journal holds 5
	f.Close()
	jpath := filepath.Join(dir, journalName)
	info, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.TruncateFile(jpath, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	g := openFileStore(t, dir, FileOptions{SnapshotEvery: 2})
	cases, _ := g.Cases()
	if len(cases) != 4 {
		t.Fatalf("after torn journal: %d cases, want snapshot's 4 (ids %v)", len(cases), caseIDs(cases))
	}

	// The store must stay writable after recovery: OpenDir repairs the
	// torn tail (truncates the fragment) so the next append starts a
	// fresh line instead of concatenating onto garbage. Case 5 is lost —
	// that is the crash contract — but case 6 must survive.
	c := exactCase("aaaa", []uint64{0b111111}, 6)
	c.ID = 6
	if err := g.Append(c); err != nil {
		t.Fatal(err)
	}
	g.Close()
	h := openFileStore(t, dir, FileOptions{SnapshotEvery: 2})
	cases, _ = h.Cases()
	if len(cases) != 5 || cases[4].ID != 6 {
		t.Fatalf("append after torn-tail repair: %d cases (ids %v), want 1-4 and 6", len(cases), caseIDs(cases))
	}
}

// recordAll records cases through a Store over the file backend at dir
// and returns them as recorded (IDs and timestamps assigned).
func recordAll(t *testing.T, dir string, opt FileOptions, cases []Case) []Case {
	t.Helper()
	s, err := Open(openFileStore(t, dir, opt), Options{Clock: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	var out []Case
	for _, c := range cases {
		rec, err := s.Record(c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRoundTripDeclinedValues: a history whose snapshot and journal
// both hold names encoding/json escapes (or that carry non-ASCII bytes)
// reopens equal to what was recorded, with exactly those values decoded
// by encoding/json and every other one by the fast path.
func TestRoundTripDeclinedValues(t *testing.T) {
	cases := genCases(rand.New(rand.NewSource(2)), 7, faultNames(4))
	cases[1].Candidates[0].Name = escapedNames[0] // snapshot: cases 1-4
	cases[4].Circuit = "s953 é"                   // journal: cases 5-7
	cases[5].Candidates[0].Name = escapedNames[2]
	dir := t.TempDir()
	recorded := recordAll(t, dir, FileOptions{SnapshotEvery: 4}, cases)

	f := openFileStore(t, dir, FileOptions{SnapshotEvery: 4})
	got, _ := f.Cases()
	if !reflect.DeepEqual(got, recorded) {
		t.Fatalf("reopened history differs from the recorded one:\n got %+v\nwant %+v", got, recorded)
	}
	if f.Declined() != 3 {
		t.Errorf("Declined() = %d, want 3 (the snapshot and journal lines 1 and 2)", f.Declined())
	}

	plain := t.TempDir()
	recordAll(t, plain, FileOptions{SnapshotEvery: 4}, genCases(rand.New(rand.NewSource(2)), 7, faultNames(4)))
	if g := openFileStore(t, plain, FileOptions{SnapshotEvery: 4}); g.Declined() != 0 {
		t.Errorf("plain history: Declined() = %d, want 0", g.Declined())
	}
}

// TestDecodedSlicesEndAtLength: loaded signatures and candidate lists
// share slabs, so each must end its capacity at its length — an append
// to one case reallocates instead of overwriting its neighbour.
func TestDecodedSlicesEndAtLength(t *testing.T) {
	dir := t.TempDir()
	recordAll(t, dir, FileOptions{SnapshotEvery: 4}, genCases(rand.New(rand.NewSource(3)), 6, faultNames(4)))
	f := openFileStore(t, dir, FileOptions{SnapshotEvery: 4})
	if f.Declined() != 0 {
		t.Fatalf("Declined() = %d, want the fast path for every value", f.Declined())
	}
	cases, _ := f.Cases()
	for _, c := range cases {
		checkWindows(t, c)
	}
	next := cases[1].Signature[0]
	_ = append(cases[0].Signature, ^next)
	_ = append(cases[0].Candidates, Candidate{Name: "appended"})
	if cases[1].Signature[0] != next || cases[1].Candidates[0].Name == "appended" {
		t.Error("an append to case 1 wrote into case 2")
	}
}

// TestJournalAndSnapshotReopenIdentically: the same history held only
// in the journal and only in the snapshot reopens to the same cases.
func TestJournalAndSnapshotReopenIdentically(t *testing.T) {
	cases := genCases(rand.New(rand.NewSource(4)), 5, faultNames(6))
	journalDir, snapDir := t.TempDir(), t.TempDir()
	recorded := recordAll(t, journalDir, FileOptions{SnapshotEvery: -1}, cases)
	recordAll(t, snapDir, FileOptions{SnapshotEvery: len(cases)}, cases)
	if info, err := os.Stat(filepath.Join(snapDir, journalName)); err != nil || info.Size() != 0 {
		t.Fatalf("snapshot-only store: journal %v, %v; want empty", info, err)
	}
	if _, err := os.Stat(filepath.Join(journalDir, snapshotName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("journal-only store has a snapshot: %v", err)
	}
	fromJournal, _ := openFileStore(t, journalDir, FileOptions{SnapshotEvery: -1}).Cases()
	fromSnap, _ := openFileStore(t, snapDir, FileOptions{SnapshotEvery: -1}).Cases()
	if !reflect.DeepEqual(fromJournal, recorded) || !reflect.DeepEqual(fromSnap, recorded) {
		t.Fatalf("reopened histories differ:\njournal  %+v\nsnapshot %+v\nrecorded %+v", fromJournal, fromSnap, recorded)
	}
}

// TestFailedRotationKeepsCaseDurable: once its journal line is synced a
// case is durable, so a failed snapshot rotation must not fail the
// append — the Store would roll the ID back and hand it out again. The
// rotation is retried on the next append.
func TestFailedRotationKeepsCaseDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(openFileStore(t, dir, FileOptions{SnapshotEvery: 1}), Options{Clock: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the snapshot goes makes the rename fail.
	blocker := filepath.Join(dir, snapshotName)
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i, sig := range []uint64{0b01, 0b10} {
		rec, err := s.Record(exactCase("aaaa", []uint64{sig}, i))
		if err != nil {
			t.Fatalf("record %d with a failing rotation: %v", i+1, err)
		}
		if rec.ID != int64(i+1) {
			t.Errorf("record %d got ID %d", i+1, rec.ID)
		}
		if rc := s.Recall("aaaa", logic.BitVec{sig}, 5); rc.Kind != Exact || rc.Case.ID != rec.ID {
			t.Errorf("durable case %d not indexed: %+v", rec.ID, rc)
		}
	}
	s.Close()

	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	g, err := Open(openFileStore(t, dir, FileOptions{SnapshotEvery: 1}), Options{Clock: fixedClock})
	if err != nil {
		t.Fatal(err)
	}
	if ids := caseIDs(g.Cases()); !reflect.DeepEqual(ids, []int64{1, 2}) {
		t.Fatalf("reopened IDs %v, want [1 2]", ids)
	}
	// With the blocker gone the retried rotation succeeds.
	if _, err := g.Record(exactCase("aaaa", []uint64{0b11}, 2)); err != nil {
		t.Fatal(err)
	}
	g.Close()
	var snapped []Case
	if data, err := os.ReadFile(blocker); err != nil || json.Unmarshal(data, &snapped) != nil || len(snapped) != 3 {
		t.Fatalf("snapshot after the retried rotation: %d cases (%v), want 3", len(snapped), err)
	}
	checkSnapshot(t, dir, g.Cases())
}

// encodeAll is the rotation before the splice: encoding/json over the
// whole history, ID ascending. The spliced snapshot is held to it.
func encodeAll(t testing.TB, cases []Case) []byte {
	t.Helper()
	sorted := slices.Clone(cases)
	slices.SortStableFunc(sorted, func(a, b Case) int { return cmp.Compare(a.ID, b.ID) })
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(sorted); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSnapshot fails unless dir's snapshot is encodeAll(all).
func checkSnapshot(t *testing.T, dir string, all []Case) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeAll(t, all); !bytes.Equal(got, want) {
		t.Fatalf("snapshot of %d cases differs from the full encoding:\n got %q\nwant %q", len(all), got, want)
	}
}

// TestRotationMatchesFullEncode: every spliced rotation writes the
// bytes encoding/json writes for the whole history — across several
// rotations, a reopen over a non-empty journal, a failed rotation and
// its retry, and the crash window between snapshot and truncate — with
// names encoding/json escapes or that are not ASCII.
func TestRotationMatchesFullEncode(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	names := append(faultNames(4), escapedNames...)
	opt := FileOptions{SnapshotEvery: 3}
	var all []Case
	rotations := 0
	// add appends n generated cases to f, the store at dir, and checks
	// the snapshot after each rotation.
	add := func(f *FileStore, dir string, n int) {
		t.Helper()
		for _, c := range genCases(r, n, names) {
			c.ID = int64(len(all) + 1)
			if err := f.Append(c); err != nil {
				t.Fatal(err)
			}
			all = append(all, c)
			if f.sinceRotate == 0 {
				rotations++
				checkSnapshot(t, dir, all)
			}
		}
	}

	dir := t.TempDir()
	f := openFileStore(t, dir, opt)
	add(f, dir, 10) // rotations after cases 3, 6 and 9; the journal keeps 10
	f.Close()
	g := openFileStore(t, dir, opt)
	if len(g.pending) == 0 {
		t.Fatal("reopen over a journal holding case 10 has nothing pending")
	}
	add(g, dir, 4) // rotation after case 13 folds in case 10
	g.Close()

	// A failed rotation keeps its pending cases for the retry: with the
	// snapshot moved aside and a directory in its place, the rotation
	// after case 17 fails; the one after case 18 succeeds.
	h := openFileStore(t, dir, opt)
	snap := filepath.Join(dir, snapshotName)
	if err := os.Rename(snap, snap+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(snap, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	add(h, dir, 3)
	if rotations != 4 || h.sinceRotate != 3 {
		t.Fatalf("blocked rotation: %d rotations, %d appends since; want 4 and 3", rotations, h.sinceRotate)
	}
	if err := os.RemoveAll(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(snap+".aside", snap); err != nil {
		t.Fatal(err)
	}
	add(h, dir, 1)
	h.Close()

	// The crash window: the snapshot holds cases 1-15 and the journal
	// still holds 13-18, so 16-18 are journal-only at open.
	crash := t.TempDir()
	if err := os.WriteFile(filepath.Join(crash, snapshotName), encodeAll(t, all[:15]), 0o644); err != nil {
		t.Fatal(err)
	}
	var journal []byte
	for _, c := range all[12:] {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(crash, journalName), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	k := openFileStore(t, crash, opt)
	add(k, crash, 3)
	k.Close()
	if rotations != 6 {
		t.Errorf("%d rotations checked, want 6", rotations)
	}
	reopened, _ := openFileStore(t, crash, opt).Cases()
	if !reflect.DeepEqual(reopened, all) {
		t.Errorf("reopen after the crash-window rotation: ids %v, want 1-%d", caseIDs(reopened), len(all))
	}
}

// TestRotationOverNonCanonicalSnapshot: a snapshot encoding/json did
// not write byte for byte — white space, an empty array, null, escapes
// it would not write, cases out of ID order — rotates into one that
// reopens to the cases a full re-encoding gives.
func TestRotationOverNonCanonicalSnapshot(t *testing.T) {
	cases := genCases(rand.New(rand.NewSource(7)), 4, faultNames(4))
	cases[1].Candidates[0].Name = escapedNames[2]
	enc := make([]string, len(cases))
	for i, c := range cases {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = string(line)
	}
	// \u0067 is g: encoding/json decodes the escape but never writes it.
	plainEscape := strings.Replace(enc[0], `"name":"g`, `"name":"\u0067`, 1)
	if plainEscape == enc[0] {
		t.Fatal("no candidate name to escape")
	}
	for _, tc := range []struct {
		name, snapshot, journal string
	}{
		{"white space", " [ " + enc[0] + " ,\n\t" + enc[1] + "\r\n] \n\n", ""},
		{"white space and journal", "[" + enc[0] + "]  ", enc[1] + "\n" + enc[2] + "\n"},
		{"empty array", "[]", ""},
		{"empty array and journal", "[ \n ]\n", enc[0] + "\n"},
		{"null", "null", ""},
		{"null and journal", "null\n", enc[0] + "\n" + enc[1] + "\n"},
		{"declined escapes", "[" + plainEscape + "," + enc[1] + "]", enc[2] + "\n"},
		{"out of ID order", "[" + enc[2] + "," + enc[0] + "]\n", enc[1] + "\n" + enc[2] + "\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte(tc.snapshot), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, journalName), []byte(tc.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			opt := FileOptions{SnapshotEvery: 2}
			f := openFileStore(t, dir, opt)
			loaded, _ := f.Cases()
			history := slices.Clone(loaded)
			for _, c := range genCases(rand.New(rand.NewSource(8)), 2, escapedNames) {
				c.ID = int64(10 + len(history))
				if err := f.Append(c); err != nil {
					t.Fatal(err)
				}
				history = append(history, c)
			}
			f.Close()
			if data, _ := os.ReadFile(filepath.Join(dir, journalName)); len(data) != 0 {
				t.Fatalf("journal holds %q after the rotation", data)
			}
			var want []Case
			if err := json.Unmarshal(encodeAll(t, history), &want); err != nil {
				t.Fatal(err)
			}
			got, _ := openFileStore(t, dir, opt).Cases()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened after the rotation:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// BenchmarkRotate appends to a 10^4-case store with a rotation after
// every append, the shape of the serve-cold store: the journal append
// and its fsync, then the snapshot rewrite and its fsyncs.
func BenchmarkRotate(b *testing.B) {
	dir := b.TempDir()
	cases := genCases(rand.New(rand.NewSource(1)), 10_000, faultNames(1000))
	if err := os.WriteFile(filepath.Join(dir, snapshotName), encodeAll(b, cases), 0o644); err != nil {
		b.Fatal(err)
	}
	f, err := OpenDir(dir, FileOptions{SnapshotEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	extra := genCases(rand.New(rand.NewSource(2)), 1, faultNames(1000))[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		extra.ID = int64(len(cases) + 1 + i)
		if err := f.Append(extra); err != nil {
			b.Fatal(err)
		}
		if f.sinceRotate != 0 {
			b.Fatal("append did not rotate")
		}
	}
}
