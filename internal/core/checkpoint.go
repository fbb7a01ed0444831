package core

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"sddict/internal/resp"
)

// checkpointVersion is bumped whenever the on-disk layout or the meaning of
// a field changes; Load rejects files from other versions. Version 2 added
// OrderSeeds, the per-restart order-seed schedule; version-1 files predate
// the schedule (their cumulative-shuffle restarts cannot be replayed under
// the per-restart scheme) and are rejected.
const checkpointVersion = 2

// Checkpoint is a resumable snapshot of same/different dictionary
// construction, taken at a Procedure 1 restart boundary. It captures the
// best baseline selection found so far together with the restart counters;
// the random state is not stored explicitly — it is reproduced on resume by
// replaying the (deterministic) shuffle sequence from Seed, so a resumed
// run continues exactly where an uninterrupted run with the same seed would
// have been. The file format is versioned JSON (see DESIGN.md §7).
type Checkpoint struct {
	Version int `json:"version"`
	// Seed is the Options.Seed of the interrupted run; resuming under a
	// different seed is rejected.
	Seed int64 `json:"seed"`
	// MatrixN/MatrixK/Fingerprint identify the response matrix the
	// checkpoint was taken over; resuming over a different matrix is
	// rejected.
	MatrixN     int    `json:"matrix_n"`
	MatrixK     int    `json:"matrix_k"`
	Fingerprint uint64 `json:"fingerprint"`
	// Restarts is the number of completed Procedure 1 runs.
	Restarts int `json:"restarts"`
	// NoImprove is the CALLS_1 counter: consecutive completed restarts
	// without improvement.
	NoImprove int `json:"no_improve"`
	// OrderSeeds records the test-order seed of every completed restart
	// (length Restarts): entry i must equal OrderSeed(Seed, i). The
	// schedule is derivable from Seed, but storing it lets ValidateFor
	// verify that the resuming build derives the same schedule — a resume
	// from a binary with a different derivation would otherwise silently
	// replay different restarts.
	OrderSeeds []int64 `json:"order_seeds"`
	// BestBaselines is the best baseline selection over the completed
	// restarts (length MatrixK).
	BestBaselines []int32 `json:"best_baselines"`
	// BestIndist is the indistinguished-pair count of BestBaselines.
	BestIndist int64 `json:"best_indist"`
	// CandidateEvals is the dist(z) evaluation count over the completed
	// restarts.
	CandidateEvals int64 `json:"candidate_evals"`
}

// MatrixFingerprint returns a cheap identity hash of a response matrix's
// class structure, used to detect a checkpoint applied to the wrong matrix.
func MatrixFingerprint(m *resp.Matrix) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int32) {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	put(int32(m.N))
	put(int32(m.K))
	for _, row := range m.Class {
		for _, c := range row {
			put(c)
		}
	}
	return h.Sum64()
}

// ValidateFor reports whether the checkpoint can resume a build of m under
// opt, returning a descriptive error when it cannot.
func (cp *Checkpoint) ValidateFor(m *resp.Matrix, opt Options) error {
	switch {
	case cp.Version != checkpointVersion:
		return fmt.Errorf("core: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	case cp.Seed != opt.Seed:
		return fmt.Errorf("core: checkpoint seed %d does not match Options.Seed %d", cp.Seed, opt.Seed)
	case cp.MatrixN != m.N || cp.MatrixK != m.K:
		return fmt.Errorf("core: checkpoint matrix %dx%d does not match %dx%d", cp.MatrixN, cp.MatrixK, m.N, m.K)
	case cp.Fingerprint != MatrixFingerprint(m):
		return fmt.Errorf("core: checkpoint fingerprint mismatch (different response matrix)")
	case len(cp.BestBaselines) != m.K:
		return fmt.Errorf("core: checkpoint has %d baselines, matrix has %d tests", len(cp.BestBaselines), m.K)
	case cp.Restarts < 1:
		return fmt.Errorf("core: checkpoint has no completed restarts")
	case len(cp.OrderSeeds) != cp.Restarts:
		return fmt.Errorf("core: checkpoint has %d order seeds for %d restarts", len(cp.OrderSeeds), cp.Restarts)
	}
	for i, s := range cp.OrderSeeds {
		if want := OrderSeed(opt.Seed, i); s != want {
			return fmt.Errorf("core: checkpoint order seed %d of restart %d does not match the schedule (%d)", s, i, want)
		}
	}
	for j, b := range cp.BestBaselines {
		if b < 0 || int(b) >= m.NumClasses(j) {
			return fmt.Errorf("core: checkpoint baseline %d of test %d out of range [0,%d)", b, j, m.NumClasses(j))
		}
	}
	return nil
}

// Encode writes the checkpoint as JSON.
func (cp *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(cp)
}

// DecodeCheckpoint reads a checkpoint written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	return &cp, nil
}

// AtomicWriteFile writes an artifact to path via write; see
// AtomicWriteFileStat, which it calls. This is the single sanctioned way
// to produce checkpoint, dictionary, and report files; the sddlint
// atomicwrite analyzer rejects direct os.WriteFile/os.Create calls
// elsewhere in the library and command packages.
func AtomicWriteFile(path string, write func(w io.Writer) error) error {
	_, err := AtomicWriteFileStat(path, write)
	return err
}

// WriteStat describes one completed AtomicWriteFileStat.
type WriteStat struct {
	// Bytes is the length of the file published at path.
	Bytes int64
	// Recycled reports that the bytes were staged in the file an
	// earlier write to path displaced, not in a fresh file.
	Recycled bool
}

// AtomicWriteFileStat writes an artifact to path via write, staging the
// bytes in a file in the destination directory and renaming it over
// path only after a successful close — so a crash mid-write never leaves
// a truncated artifact observable at path. The staged file is fsynced
// before the rename and the parent directory after it, so the published
// artifact also survives power loss: rename-over-unsynced-data can
// otherwise leave an empty or torn file once the page cache is gone.
//
// The file a write displaces from path is kept as the spare
// ".<base>.spare" and becomes the next write's staging file, so the
// blocks of a republished path are never freed: on a filesystem that
// discards freed blocks (ext4 mounted -o discard), an unlink, a shrinking
// truncate or a rename over an existing file waits tens of milliseconds,
// where a rename to a fresh name takes microseconds. A write claims the
// spare by renaming it to a name of its own, keeps it only if it is a
// regular file with no other link, and otherwise stages in a fresh
// temp file. It writes from offset 0 and truncates to the written
// length. The swap links path to a second name of the writer's own,
// renames the staged file over path, fsyncs the directory, and renames
// the displaced file to the spare. The invariants:
//
//   - At every crash point path holds a complete, fsynced artifact,
//     the old one or the new one. A crash can leave the writer's own
//     names behind ("<base>.tmp*", "<base>.tmp*.old"); none of them is
//     ever renamed to path, and a later write claims or replaces a
//     left-over spare.
//   - A file is rewritten in place only after it has left path and one
//     writer has claimed it exclusively, so concurrent writers to one
//     path stay safe. A displaced file another name still links (a
//     writer's "<base>.tmp*.old", a crash leftover, a user's hard link)
//     is never rewritten.
//   - A failed write removes only the writer's own names; path and the
//     spare another writer may hold are untouched.
//   - Only a truncate that shrinks the recycled file by whole blocks
//     still frees anything.
//
// A reader that keeps one handle on path open across two writes to it
// can read bytes being rewritten, since its file may by then be the
// spare a later write claimed. Readers that must tolerate that verify
// what they read: a dictio artifact's checksums turn such a read into
// dictio.ErrCorruptArtifact, never into a wrong dictionary.
func AtomicWriteFileStat(path string, write func(w io.Writer) error) (WriteStat, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	spare := spareName(path)
	f, recycled, err := stage(dir, base, spare)
	if err != nil {
		return WriteStat{}, err
	}
	name := f.Name()
	n, err := fill(f, write)
	// CreateTemp opens 0600; artifacts are ordinary files, so restore the
	// usual creation mode before publishing.
	if err == nil {
		err = os.Chmod(name, 0o644)
	}
	if err != nil {
		os.Remove(name)
		return WriteStat{}, err
	}
	// Keep a link to the file about to be displaced, so the rename over
	// path frees nothing. Without one (no path yet, or a filesystem
	// without hard links) the rename simply replaces path.
	old := name + ".old"
	retire := os.Link(path, old) == nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		if retire {
			os.Remove(old)
		}
		return WriteStat{}, err
	}
	err = syncDir(dir)
	if retire {
		// When a concurrent writer has already retired the same file,
		// spare names it too and the rename does nothing; dropping the
		// leftover name then frees nothing either.
		os.Rename(old, spare)
		os.Remove(old)
	}
	return WriteStat{Bytes: n, Recycled: recycled}, err
}

// spareName is where AtomicWriteFileStat keeps the file a write to path
// displaced.
func spareName(path string) string {
	return filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".spare")
}

// RemoveAtomicFile removes path and the spare AtomicWriteFileStat keeps
// beside it: the end of a file no later write replaces, such as a
// completed build's checkpoint.
func RemoveAtomicFile(path string) error {
	err := os.Remove(path)
	if serr := os.Remove(spareName(path)); err == nil && !errors.Is(serr, fs.ErrNotExist) {
		err = serr
	}
	return err
}

// stage opens the file a write fills, under a name unique to the
// writer: the claimed spare when it is a regular file with no other
// link (recycled), else a fresh temp file.
func stage(dir, base, spare string) (f *os.File, recycled bool, err error) {
	f, err = os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return nil, false, err
	}
	name := f.Name()
	// Claim the spare by renaming it over the fresh file: of concurrent
	// writers one rename succeeds and the others find no spare. The
	// fresh file holds no blocks, so replacing it frees nothing.
	if os.Rename(spare, name) != nil {
		return f, false, nil
	}
	f.Close()
	if fi, err := os.Lstat(name); err == nil && fi.Mode().IsRegular() && soleLink(fi) {
		if g, err := os.OpenFile(name, os.O_WRONLY, 0); err == nil {
			return g, true, nil
		}
	}
	// Rewriting a file another name links would change that file too:
	// drop this writer's link and stage in a fresh file.
	os.Remove(name)
	f, err = os.CreateTemp(dir, base+".tmp*")
	return f, false, err
}

// fill writes the content into f from offset 0, trims f to it (a
// recycled file may be longer), makes it durable and closes f. The
// length is the file offset after Flush rather than a count taken by a
// wrapping writer: write must get the bufio.Writer over the *os.File
// itself so that io.Copy from a file can hand the copy to the kernel
// (casestore's copyHead).
func fill(f *os.File, write func(w io.Writer) error) (int64, error) {
	bw := bufio.NewWriter(f)
	err := write(bw)
	if err == nil {
		err = bw.Flush()
	}
	var n int64
	if err == nil {
		n, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = f.Truncate(n)
	}
	if err == nil {
		if err = f.Sync(); err != nil {
			err = fmt.Errorf("core: syncing %s: %w", f.Name(), err)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// syncDir fsyncs a directory so a just-renamed entry is durable — the
// rename itself lives in directory metadata, which its own fsync
// publishes.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("core: opening directory %s for sync: %w", dir, err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("core: syncing directory %s: %w", dir, serr)
	}
	return cerr
}

// Save writes the checkpoint to path atomically (temp file + rename), so a
// crash mid-write never leaves a truncated checkpoint behind.
func (cp *Checkpoint) Save(path string) error {
	if err := AtomicWriteFile(path, func(w io.Writer) error { return cp.Encode(w) }); err != nil {
		return fmt.Errorf("core: saving checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint file written by Save.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
