package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// publish writes content to path through AtomicWriteFileStat.
func publish(t *testing.T, path string, content []byte) WriteStat {
	t.Helper()
	st, err := AtomicWriteFileStat(path, func(w io.Writer) error {
		_, err := w.Write(content)
		return err
	})
	if err != nil {
		t.Fatalf("publishing %d bytes: %v", len(content), err)
	}
	if st.Bytes != int64(len(content)) {
		t.Fatalf("WriteStat.Bytes = %d, want %d", st.Bytes, len(content))
	}
	return st
}

// requireContent fails unless the file at path holds exactly want.
func requireContent(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s holds %d bytes %.16q…, want %d bytes %.16q…", filepath.Base(path), len(got), got, len(want), want)
	}
}

// entries lists the names in dir, sorted.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		out = append(out, de.Name())
	}
	sort.Strings(out)
	return out
}

func requireEntries(t *testing.T, dir string, want ...string) {
	t.Helper()
	sort.Strings(want)
	if got := entries(t, dir); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("directory holds %q, want %q", got, want)
	}
}

func statFile(t *testing.T, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

// content is a deterministic payload of n bytes tagged with tag.
func content(tag string, n int) []byte {
	b := bytes.Repeat([]byte{'.'}, n)
	copy(b, tag+":")
	return b
}

// TestAtomicWriteFileRecyclesDisplaced pins the recycle: the first write
// (no path yet) and the second (no spare yet) stage in fresh files, the
// second keeps the file it displaced as the spare, and the third
// rewrites that very file, trimmed to the new length. RemoveAtomicFile
// then removes path and spare.
func TestAtomicWriteFileRecyclesDisplaced(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.sdda")
	spare := filepath.Join(dir, ".a.sdda.spare")

	c1, c2, c3 := content("one", 20000), content("two", 300), content("three", 9000)
	if st := publish(t, path, c1); st.Recycled {
		t.Fatal("first write recycled a file")
	}
	requireEntries(t, dir, "a.sdda")
	first := statFile(t, path)

	if st := publish(t, path, c2); st.Recycled {
		t.Fatal("second write recycled a file with no spare present")
	}
	requireEntries(t, dir, "a.sdda", ".a.sdda.spare")
	requireContent(t, path, c2)
	if !os.SameFile(first, statFile(t, spare)) {
		t.Fatal("the displaced file did not become the spare")
	}
	second := statFile(t, path)

	if st := publish(t, path, c3); !st.Recycled {
		t.Fatal("third write did not recycle the spare")
	}
	requireEntries(t, dir, "a.sdda", ".a.sdda.spare")
	requireContent(t, path, c3)
	got := statFile(t, path)
	if !os.SameFile(first, got) {
		t.Fatal("third write did not publish the recycled file")
	}
	if got.Mode().Perm() != 0o644 {
		t.Fatalf("published mode %v, want 0644", got.Mode().Perm())
	}
	if !os.SameFile(second, statFile(t, spare)) {
		t.Fatal("the file the third write displaced is not the spare")
	}
	requireContent(t, spare, c2)

	if err := RemoveAtomicFile(path); err != nil {
		t.Fatal(err)
	}
	requireEntries(t, dir)
}

// TestAtomicWriteFileConcurrentPublishers runs rounds of writers
// publishing distinct contents to one path at once: every write
// succeeds, after each round path holds exactly one of that round's
// contents, and no writer leaves a name behind.
func TestAtomicWriteFileConcurrentPublishers(t *testing.T) {
	const writers, rounds = 6, 8
	dir := t.TempDir()
	path := filepath.Join(dir, "a.sdda")
	for r := 0; r < rounds; r++ {
		contents := make([][]byte, writers)
		for w := range contents {
			// Lengths vary so recycled files both grow and shrink.
			contents[w] = content(fmt.Sprintf("round %d writer %d", r, w), 64+(r*writers+w)*97%3000)
		}
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := range contents {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, errs[w] = AtomicWriteFileStat(path, func(out io.Writer) error {
					_, err := out.Write(contents[w])
					return err
				})
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d writer %d: %v", r, w, err)
			}
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, c := range contents {
			found = found || bytes.Equal(got, c)
		}
		if !found {
			t.Fatalf("round %d: path holds %d bytes %.24q…, no writer's content", r, len(got), got)
		}
		for _, name := range entries(t, dir) {
			if name != "a.sdda" && name != ".a.sdda.spare" {
				t.Fatalf("round %d left %q behind", r, name)
			}
		}
	}
}

// TestAtomicWriteFileSkipsLinkedSpare: a spare that another name still
// links is never rewritten in place, whether the second link is a hard
// link to the spare or to the published file before it was displaced.
func TestAtomicWriteFileSkipsLinkedSpare(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.sdda")
	spare := filepath.Join(dir, ".a.sdda.spare")
	c1, c2 := content("one", 5000), content("two", 5000)
	publish(t, path, c1)
	publish(t, path, c2)
	kept := filepath.Join(dir, "kept")
	if err := os.Link(spare, kept); err != nil {
		t.Fatal(err)
	}
	c3 := content("three", 5000)
	if st := publish(t, path, c3); st.Recycled {
		t.Fatal("a spare with two links was recycled")
	}
	requireContent(t, path, c3)
	requireContent(t, kept, c1)

	// A user's hard link to the published file follows it into the
	// spare; the write after next must still leave it alone.
	backup := filepath.Join(dir, "backup")
	if err := os.Link(path, backup); err != nil {
		t.Fatal(err)
	}
	c4, c5 := content("four", 100), content("five", 100)
	if st := publish(t, path, c4); !st.Recycled {
		t.Fatal("the single-link spare was not recycled")
	}
	if st := publish(t, path, c5); st.Recycled {
		t.Fatal("a spare still linked by a backup was recycled")
	}
	requireContent(t, path, c5)
	requireContent(t, backup, c3)
	requireContent(t, kept, c1)
}

// TestAtomicWriteFileCrashLeftovers simulates what a crash can leave in
// the directory — a spare holding stale bytes, a writer's ".old" link to
// the published file, a spare that is not a regular file — and checks
// that each is recycled or replaced and never becomes visible at path.
func TestAtomicWriteFileCrashLeftovers(t *testing.T) {
	t.Run("stale spare", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.sdda")
		spare := filepath.Join(dir, ".a.sdda.spare")
		publish(t, path, content("one", 100))
		if err := AtomicWriteFile(spare, func(w io.Writer) error {
			_, err := w.Write(bytes.Repeat([]byte{0xff}, 64<<10))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		c := content("two", 700)
		if st := publish(t, path, c); !st.Recycled {
			t.Fatal("the stale spare was not recycled")
		}
		requireContent(t, path, c)
	})

	t.Run("stale old link", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.sdda")
		c1 := content("one", 3000)
		publish(t, path, c1)
		// A crash between linking the displaced file and renaming over
		// path leaves the link behind.
		stale := filepath.Join(dir, "a.sdda.tmp123.old")
		if err := os.Link(path, stale); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			c := content(fmt.Sprintf("next %d", i), 1000+i*2000)
			publish(t, path, c)
			requireContent(t, path, c)
		}
		requireContent(t, stale, c1)
	})

	t.Run("stale staging file", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.sdda")
		publish(t, path, content("one", 100))
		publish(t, path, content("two", 100))
		// A crash mid-write leaves the claimed spare under the writer's
		// own name, half rewritten.
		stale := filepath.Join(dir, "a.sdda.tmp456")
		if err := os.Rename(filepath.Join(dir, ".a.sdda.spare"), stale); err != nil {
			t.Fatal(err)
		}
		c := content("three", 100)
		if st := publish(t, path, c); st.Recycled {
			t.Fatal("recycled with no spare present")
		}
		requireContent(t, path, c)
		requireContent(t, stale, content("one", 100))
	})

	t.Run("symlinks", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.sdda")
		target := filepath.Join(t.TempDir(), "elsewhere")
		c0 := content("elsewhere", 500)
		publish(t, target, c0)
		if err := os.Symlink(target, filepath.Join(dir, ".a.sdda.spare")); err != nil {
			t.Skipf("no symlinks here: %v", err)
		}
		c := content("one", 100)
		if st := publish(t, path, c); st.Recycled {
			t.Fatal("a symlink spare was recycled")
		}
		requireContent(t, path, c)
		requireContent(t, target, c0)

		// A symlink at path is replaced, as a plain rename replaces it,
		// and the spare it becomes is dropped, not written through.
		other := filepath.Join(dir, "b.sdda")
		if err := os.Symlink(target, other); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			c := content(fmt.Sprintf("b %d", i), 300)
			publish(t, other, c)
			requireContent(t, other, c)
		}
		requireContent(t, target, c0)
	})

	t.Run("directory spare", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "a.sdda")
		if err := os.Mkdir(filepath.Join(dir, ".a.sdda.spare"), 0o755); err != nil {
			t.Fatal(err)
		}
		c := content("one", 100)
		if st := publish(t, path, c); st.Recycled {
			t.Fatal("a directory spare was recycled")
		}
		requireContent(t, path, c)
	})
}

// TestAtomicWriteFileFailedWriteRemovesOwnNames: a write whose content
// callback fails, or whose rename over path fails, returns the error,
// keeps path as it was and removes only the names the writer made or
// claimed.
func TestAtomicWriteFileFailedWriteRemovesOwnNames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.sdda")
	c1, c2 := content("one", 4000), content("two", 4000)
	publish(t, path, c1)
	publish(t, path, c2)
	boom := errors.New("boom")
	torn := func(w io.Writer) error {
		if _, err := w.Write(content("torn", 100)); err != nil {
			return err
		}
		return boom
	}
	// Through the claimed spare, then through a fresh file.
	for i := 0; i < 2; i++ {
		if _, err := AtomicWriteFileStat(path, torn); !errors.Is(err, boom) {
			t.Fatalf("failed write %d: err = %v, want boom", i, err)
		}
		requireContent(t, path, c2)
		requireEntries(t, dir, "a.sdda")
	}
	c3 := content("three", 10)
	publish(t, path, c3)
	requireContent(t, path, c3)

	// A rename that cannot replace path (a non-empty directory there).
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := AtomicWriteFileStat(blocked, func(w io.Writer) error { return nil }); err == nil {
		t.Fatal("write over a non-empty directory succeeded")
	}
	requireEntries(t, dir, "a.sdda", "blocked", ".a.sdda.spare")
}
