package casestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"sddict/internal/core"
	"sddict/internal/faultfs"
)

// ErrCorruptStore marks structural damage in a case-store directory
// that is *not* a crash-torn journal tail: an unparsable snapshot, or a
// malformed journal line that is newline-terminated (i.e. was fully
// written and then damaged). Torn tails — the one failure mode a
// SIGKILL mid-append legitimately produces — are tolerated silently,
// exactly like obs.ReadEvents tolerates a torn trace.
var ErrCorruptStore = errors.New("casestore: corrupt store")

const (
	journalName  = "journal.jsonl"
	snapshotName = "snapshot.json"

	// defaultSnapshotEvery is how many journal appends trigger a
	// snapshot + journal rotation.
	defaultSnapshotEvery = 256
)

// FileStore is the durable backend: a directory holding an append-only
// JSONL journal (one case per line, one Write call per case so a crash
// tears at most the final line) and a periodic snapshot written through
// core.AtomicWriteFile. On open, cases = snapshot ∪ journal, deduped by
// ID — the journal is only rotated *after* its cases are safely inside
// a snapshot, so a crash between the two steps duplicates cases rather
// than losing them, and the dedup makes the duplicate harmless.
//
// A rotation never re-encodes the history: it copies the current
// snapshot up to its closing bracket and appends the encodings of the
// cases the snapshot does not hold yet (DESIGN.md §15, "Periodic
// snapshot").
//
// FileStore methods are not themselves concurrency-safe; the Store
// front serializes access.
type FileStore struct {
	dir           string
	fs            faultfs.FS
	snapshotEvery int

	journal     *os.File
	sinceRotate int
	loaded      []Case
	// snapHead is the offset of the snapshot's closing ']', 0 when there
	// is no snapshot or it holds no case. pending holds the comma-joined
	// json.Marshal encodings of the durable cases the snapshot does not
	// hold, in the order the next rotation appends them; it stays empty
	// when snapshots are disabled.
	snapHead int64
	pending  []byte
	declined int // snapshot/journal values the open decoded with encoding/json
}

// FileOptions parameterizes OpenDir. The zero value is usable.
type FileOptions struct {
	// SnapshotEvery is the number of appended cases between snapshot
	// rotations. Default 256; negative disables snapshots (journal-only).
	SnapshotEvery int
	// FS is the filesystem reads go through (the fault-injection seam);
	// writes always go to the real filesystem. Default faultfs.OS.
	FS faultfs.FS
}

// OpenDir opens (creating if needed) the durable case store at dir.
func OpenDir(dir string, opt FileOptions) (*FileStore, error) {
	if opt.SnapshotEvery == 0 {
		opt.SnapshotEvery = defaultSnapshotEvery
	}
	if opt.FS == nil {
		opt.FS = faultfs.OS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("casestore: creating %s: %w", dir, err)
	}
	fst := &FileStore{dir: dir, fs: opt.FS, snapshotEvery: opt.SnapshotEvery}
	cases, validLen, needNL, err := fst.loadAll()
	if err != nil {
		return nil, err
	}
	fst.loaded = cases
	j, err := os.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("casestore: opening journal: %w", err)
	}
	// Repair the crash-torn tail before appending: without this, the
	// next append would concatenate onto the torn fragment and turn a
	// tolerated crash artifact into a newline-terminated corrupt line —
	// a permanent ErrCorruptStore on the open after that. Truncating to
	// the last structurally sound byte (and restoring the final line's
	// missing newline) is the WAL recovery step.
	if info, serr := j.Stat(); serr == nil && info.Size() > validLen {
		if err := j.Truncate(validLen); err != nil {
			j.Close()
			return nil, fmt.Errorf("casestore: repairing torn journal tail: %w", err)
		}
	}
	if needNL {
		if _, err := j.Write([]byte("\n")); err != nil {
			j.Close()
			return nil, fmt.Errorf("casestore: repairing torn journal tail: %w", err)
		}
	}
	fst.journal = j
	return fst, nil
}

// loadAll reads snapshot + journal and returns the deduped, ID-sorted
// case history, plus the journal's sound byte length and whether its
// final line needs a newline restored (see OpenDir's repair step). It
// sets snapHead and queues the journal-only cases, in journal order,
// as the next rotation's pending tail.
func (f *FileStore) loadAll() ([]Case, int64, bool, error) {
	dec := newCaseDecoder()
	cases, head, err := f.readSnapshot(dec)
	if err != nil {
		return nil, 0, false, err
	}
	f.snapHead = head
	jcases, validLen, needNL, err := f.readJournal(dec)
	if err != nil {
		return nil, 0, false, err
	}
	if len(jcases) > 0 {
		seen := make(map[int64]bool, len(cases)+len(jcases))
		for _, c := range cases {
			seen[c.ID] = true
		}
		for _, c := range jcases {
			if !seen[c.ID] {
				seen[c.ID] = true
				cases = append(cases, c)
				if f.snapshotEvery > 0 {
					line, err := json.Marshal(c)
					if err != nil {
						return nil, 0, false, fmt.Errorf("casestore: encoding journal case %d: %w", c.ID, err)
					}
					f.addPending(line)
				}
			}
		}
	}
	sort.Slice(cases, func(a, b int) bool { return cases[a].ID < cases[b].ID })
	f.declined = dec.declined
	return cases, validLen, needNL, nil
}

// readFile reads an opened file whole. The buffer is sized from
// os.Stat up front, so a large snapshot arrives in one allocation
// instead of io.ReadAll's repeated grow-and-copy; the bytes themselves
// still come through file, the faultfs seam.
func readFile(file faultfs.File, name string) ([]byte, error) {
	var size int64
	if info, err := os.Stat(name); err == nil {
		size = info.Size()
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(file)
	return buf.Bytes(), err
}

// readSnapshot parses snapshot.json; a missing snapshot is an empty
// history, a damaged one is ErrCorruptStore (it was written atomically,
// so damage is bit rot, not a crash artifact). It also returns the
// offset of the closing ']' — the last byte before trailing white space
// of an array that decoded — or 0 when there is no case to splice after.
func (f *FileStore) readSnapshot(dec *caseDecoder) ([]Case, int64, error) {
	name := filepath.Join(f.dir, snapshotName)
	file, err := f.fs.Open(name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("casestore: opening snapshot: %w", err)
	}
	defer file.Close()
	data, err := readFile(file, name)
	if err != nil {
		return nil, 0, fmt.Errorf("casestore: reading snapshot: %w", err)
	}
	cases, err := dec.snapshot(data)
	if err != nil {
		return nil, 0, fmt.Errorf("casestore: parsing snapshot (atomic write, so this is bit rot): %w: %w", err, ErrCorruptStore)
	}
	var head int64
	if len(cases) > 0 {
		head = int64(len(bytes.TrimRight(data, " \t\r\n"))) - 1
	}
	return cases, head, nil
}

// readJournal parses journal.jsonl with obs.ReadEvents semantics: a
// final line without a newline is a crash-torn append and yields the
// parsed prefix; a malformed line that *is* newline-terminated (or is
// followed by more lines) is corruption and fails with ErrCorruptStore.
//
// Alongside the cases it returns the byte length of the structurally
// sound prefix (everything up to and including the last usable line)
// and whether the final line parsed but is missing its newline — the
// inputs to OpenDir's torn-tail repair.
func (f *FileStore) readJournal(dec *caseDecoder) ([]Case, int64, bool, error) {
	name := filepath.Join(f.dir, journalName)
	file, err := f.fs.Open(name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, false, nil
		}
		return nil, 0, false, fmt.Errorf("casestore: opening journal: %w", err)
	}
	defer file.Close()
	rest, err := readFile(file, name)
	if err != nil {
		return nil, 0, false, fmt.Errorf("casestore: reading journal: %w", err)
	}
	var cases []Case
	var valid int64
	for {
		line, complete := rest, false
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest, complete = rest[:i+1], rest[i+1:], true
		} else {
			rest = nil
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			c, uerr := dec.line(trimmed)
			if uerr != nil {
				if !complete {
					// Torn tail: the writer died mid-append. Keep the prefix.
					return cases, valid, false, nil
				}
				return nil, 0, false, fmt.Errorf("casestore: journal case %d: %w: %w", len(cases)+1, uerr, ErrCorruptStore)
			}
			cases = append(cases, c)
			valid += int64(len(line))
			if !complete {
				// The append's single write landed fully, only the trailing
				// newline is conceptually missing (it is part of the same
				// write, so in practice this means a reader raced the crash).
				return cases, valid, true, nil
			}
			continue
		}
		if !complete {
			// Whitespace-only torn tail: drop it.
			return cases, valid, false, nil
		}
		valid += int64(len(line))
	}
}

// Append journals c durably (one write, fsync'd) and rotates journal
// into snapshot every snapshotEvery appends. An error means c is not
// durable; a failed rotation is retried on the next append instead.
func (f *FileStore) Append(c Case) error {
	line, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("casestore: encoding case %d: %w", c.ID, err)
	}
	if _, err := f.journal.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("casestore: appending case %d: %w", c.ID, err)
	}
	if err := f.journal.Sync(); err != nil {
		return fmt.Errorf("casestore: syncing journal: %w", err)
	}
	f.addPending(line)
	f.sinceRotate++
	if f.snapshotEvery > 0 && f.sinceRotate >= f.snapshotEvery {
		// The case is durable once the journal line is synced, so a
		// failed rotation does not fail the append: the caller would
		// otherwise reuse the case's ID. sinceRotate stays unreset and
		// the next append retries the rotation.
		_ = f.rotate()
	}
	return nil
}

// addPending queues one case's json.Marshal encoding for the next
// rotation.
func (f *FileStore) addPending(line []byte) {
	if f.snapshotEvery <= 0 {
		return
	}
	if len(f.pending) > 0 {
		f.pending = append(f.pending, ',')
	}
	f.pending = append(f.pending, line...)
}

// rotate folds the journal into a fresh snapshot and truncates the
// journal. The new snapshot is the current one up to its closing ']',
// then ',' (or '[' when there is none), the pending encodings and
// "]\n": for a snapshot encoding/json wrote, byte for byte what
// encoding/json writes for the whole history, since it writes an array
// as '[', the elements' json.Marshal bytes joined by ',', and ']'.
// Order matters for crash safety: the snapshot (atomic temp+rename)
// lands first, so a crash before the truncate merely leaves journal
// entries that the snapshot already holds — deduped by ID on the next
// open. A failed write keeps snapHead and pending for the retry.
func (f *FileStore) rotate() error {
	name := filepath.Join(f.dir, snapshotName)
	err := core.AtomicWriteFile(name, func(w io.Writer) error {
		open := "["
		if f.snapHead > 0 {
			if err := copyHead(w, name, f.snapHead); err != nil {
				return err
			}
			open = ","
		}
		if _, err := io.WriteString(w, open); err != nil {
			return err
		}
		if _, err := w.Write(f.pending); err != nil {
			return err
		}
		_, err := io.WriteString(w, "]\n")
		return err
	})
	if err != nil {
		return fmt.Errorf("casestore: writing snapshot: %w", err)
	}
	f.snapHead += 1 + int64(len(f.pending))
	f.pending = f.pending[:0]
	if err := f.journal.Truncate(0); err != nil {
		return fmt.Errorf("casestore: truncating journal after snapshot: %w", err)
	}
	f.sinceRotate = 0
	return nil
}

// copyHead copies the first n bytes of the file at name to w. A plain
// io.Copy from a LimitReader lets a bufio.Writer over an *os.File hand
// the copy to the kernel (copy_file_range) instead of through memory.
func copyHead(w io.Writer, name string, n int64) error {
	src, err := os.Open(name)
	if err != nil {
		return err
	}
	defer src.Close()
	copied, err := io.Copy(w, io.LimitReader(src, n))
	if err == nil && copied < n {
		err = fmt.Errorf("%s: %d of %d head bytes: %w", name, copied, n, io.ErrUnexpectedEOF)
	}
	return err
}

// Cases returns the history loaded at open. Appends made through this
// handle are tracked by the Store's index, not replayed here.
func (f *FileStore) Cases() ([]Case, error) { return f.loaded, nil }

// Declined returns how many snapshot and journal values the open had
// to decode with encoding/json because they fell outside the fast
// decoder's grammar (DESIGN.md §15, "Opening the store"). For a store
// this package wrote it is the number of values holding a string that
// encoding/json escapes or that is not ASCII.
func (f *FileStore) Declined() int { return f.declined }

// Close releases the journal handle.
func (f *FileStore) Close() error {
	if f.journal == nil {
		return nil
	}
	err := f.journal.Close()
	f.journal = nil
	if err != nil {
		return fmt.Errorf("casestore: closing journal: %w", err)
	}
	return nil
}
