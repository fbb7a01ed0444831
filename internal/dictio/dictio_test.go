package dictio_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/faultfs"
	"sddict/internal/logic"
	"sddict/internal/resp"
)

func vec(t *testing.T, s string) logic.BitVec {
	t.Helper()
	v, err := dictio.ParseVector(s, len(s))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// testArtifact builds a small pass/fail artifact: 3 faults, 2 tests,
// 3 outputs — enough structure that every section is non-trivial.
func testArtifact(t *testing.T) *dictio.Artifact {
	t.Helper()
	ff := []logic.BitVec{vec(t, "000"), vec(t, "111")}
	responses := [][]logic.BitVec{
		{vec(t, "001"), vec(t, "000"), vec(t, "010")},
		{vec(t, "111"), vec(t, "011"), vec(t, "111")},
	}
	m := resp.FromResponses(3, ff, responses)
	compiled, err := core.NewPassFail(m).Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := dictio.New(compiled, dictio.Header{
		Circuit: "toy", TestSet: "exhaustive", Seed: 7,
		Faults: []string{"g0 s-a-0", "g1 s-a-1", "g2 s-a-0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func encode(t *testing.T, a *dictio.Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestArtifactRoundTrip(t *testing.T) {
	a := testArtifact(t)
	data := encode(t, a)

	got, err := dictio.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Header.Circuit != "toy" || got.Header.Seed != 7 || got.Header.TestSet != "exhaustive" {
		t.Errorf("header round trip: %+v", got.Header)
	}
	if len(got.Header.Faults) != 3 || got.Header.Faults[1] != "g1 s-a-1" {
		t.Errorf("fault-class table round trip: %v", got.Header.Faults)
	}
	if got.Header.Kind != a.Dict.Kind.String() || got.Header.Tests != 2 || got.Header.Outputs != 3 {
		t.Errorf("derived header fields: %+v", got.Header)
	}
	if got.Checksum != a.Checksum {
		t.Errorf("decode checksum %#08x != encode checksum %#08x", got.Checksum, a.Checksum)
	}
	if len(got.Dict.Rows) != len(a.Dict.Rows) {
		t.Fatalf("row count: %d != %d", len(got.Dict.Rows), len(a.Dict.Rows))
	}
	for i := range got.Dict.Rows {
		if !got.Dict.Rows[i].Equal(a.Dict.Rows[i]) {
			t.Errorf("row %d differs after round trip", i)
		}
	}
	for j := range got.Dict.Baseline {
		if !got.Dict.Baseline[j].Equal(a.Dict.Baseline[j]) {
			t.Errorf("baseline %d differs after round trip", j)
		}
	}
}

func TestArtifactSaveLoad(t *testing.T) {
	a := testArtifact(t)
	path := filepath.Join(t.TempDir(), "toy.sdda")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := dictio.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum != a.Checksum {
		t.Errorf("loaded checksum %#08x, published %#08x", got.Checksum, a.Checksum)
	}
	ok, err := dictio.SniffFile(faultfs.OS, path)
	if err != nil || !ok {
		t.Errorf("SniffFile = %v, %v; want true", ok, err)
	}
}

// wantDamageSentinel asserts the decode verdict on damaged bytes: an
// error wrapping one of the two sentinels, never a silent success. A
// decoder panic fails the test run outright, which is the "never
// panics" contract.
func wantDamageSentinel(t *testing.T, data []byte, what string) {
	t.Helper()
	_, err := dictio.Decode(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("%s: decode accepted damaged artifact", what)
	}
	if !errors.Is(err, dictio.ErrCorruptArtifact) && !errors.Is(err, dictio.ErrArtifactVersion) {
		t.Fatalf("%s: err = %v, want ErrCorruptArtifact or ErrArtifactVersion", what, err)
	}
}

// TestArtifactTruncationMatrix truncates the artifact at every possible
// length — which covers every section boundary and every interior
// offset — and requires a wrapped sentinel each time.
func TestArtifactTruncationMatrix(t *testing.T) {
	data := encode(t, testArtifact(t))
	for size := 0; size < len(data); size++ {
		_, err := dictio.Decode(bytes.NewReader(data[:size]))
		if err == nil {
			t.Fatalf("decode accepted artifact truncated to %d of %d bytes", size, len(data))
		}
		if !errors.Is(err, dictio.ErrCorruptArtifact) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorruptArtifact", size, err)
		}
	}
}

// TestArtifactBitFlipMatrix flips every single bit of the encoded
// artifact, one at a time. Every flip must be detected: payload flips by
// the section CRCs, structural flips (magic, counts, lengths, ids, the
// CRC fields themselves) by validation. Flips inside the version field
// legitimately surface as ErrArtifactVersion.
func TestArtifactBitFlipMatrix(t *testing.T) {
	data := encode(t, testArtifact(t))
	for bit := 0; bit < len(data)*8; bit++ {
		mut := bytes.Clone(data)
		mut[bit/8] ^= 1 << uint(bit%8)
		wantDamageSentinel(t, mut, "bit flip")
	}
}

func TestArtifactWrongMagic(t *testing.T) {
	data := encode(t, testArtifact(t))
	copy(data[0:4], "JUNK")
	_, err := dictio.Decode(bytes.NewReader(data))
	if !errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Fatalf("wrong magic: err = %v, want ErrCorruptArtifact", err)
	}
}

func TestArtifactFutureVersion(t *testing.T) {
	data := encode(t, testArtifact(t))
	binary.LittleEndian.PutUint32(data[4:8], dictio.FormatVersion+1)
	_, err := dictio.Decode(bytes.NewReader(data))
	if !errors.Is(err, dictio.ErrArtifactVersion) {
		t.Fatalf("future version: err = %v, want ErrArtifactVersion", err)
	}
	if errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Fatalf("future version misreported as corruption: %v", err)
	}
}

func TestArtifactUnknownSection(t *testing.T) {
	data := encode(t, testArtifact(t))
	// Byte 12 is the first section's id field (id 1, the header).
	data[12] = 9
	wantDamageSentinel(t, data, "unknown section id")
}

func TestArtifactTrailingBytes(t *testing.T) {
	data := encode(t, testArtifact(t))
	data = append(data, 0x00)
	_, err := dictio.Decode(bytes.NewReader(data))
	if !errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Fatalf("trailing bytes: err = %v, want ErrCorruptArtifact", err)
	}
}

// TestArtifactSectionDisagreement damages the header/payload agreement
// rather than any one section: both CRCs pass, the cross-check must
// object.
func TestArtifactSectionDisagreement(t *testing.T) {
	a := testArtifact(t)
	a.Header.Faults = a.Header.Faults[:2] // one name short, bypassing New's check
	data := encode(t, a)
	wantDamageSentinel(t, data, "header/dict disagreement")
}

// TestTornPublishLeavesNoArtifact drives a publish through
// core.AtomicWriteFile with a writer that tears mid-stream: the publish
// must fail and the destination must keep its previous content.
func TestTornPublishLeavesNoArtifact(t *testing.T) {
	a := testArtifact(t)
	path := filepath.Join(t.TempDir(), "toy.sdda")

	// Fresh destination: the torn publish must not create the file.
	err := core.AtomicWriteFile(path, func(w io.Writer) error {
		return a.Encode(faultfs.Torn(w, 20))
	})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn publish err = %v, want ErrInjected", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn publish left a file behind: stat err = %v", err)
	}

	// Existing artifact: the torn re-publish must leave it loadable.
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	err = core.AtomicWriteFile(path, func(w io.Writer) error {
		return a.Encode(faultfs.Torn(w, 20))
	})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn re-publish err = %v, want ErrInjected", err)
	}
	if _, err := dictio.Load(path); err != nil {
		t.Fatalf("previous artifact no longer loads after torn re-publish: %v", err)
	}

	// A second good publish leaves the first artifact's file as the
	// spare; a torn publish claims it and rewrites it in place. The
	// failure must drop it, leave the previous artifact loadable, and
	// let the next publish go through.
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	spare := filepath.Join(filepath.Dir(path), ".toy.sdda.spare")
	if _, err := os.Stat(spare); err != nil {
		t.Fatalf("second publish kept no spare: %v", err)
	}
	err = core.AtomicWriteFile(path, func(w io.Writer) error {
		return a.Encode(faultfs.Torn(w, 20))
	})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn publish through the spare: err = %v, want ErrInjected", err)
	}
	if _, err := os.Stat(spare); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn publish did not claim the spare: stat err = %v", err)
	}
	if _, err := dictio.Load(path); err != nil {
		t.Fatalf("previous artifact no longer loads after torn publish through the spare: %v", err)
	}
	if err := a.Save(path); err != nil {
		t.Fatalf("publish after a torn one: %v", err)
	}
	if _, err := dictio.Load(path); err != nil {
		t.Fatal(err)
	}
}

// TestReadAcrossRecycledPublishes pins the reader caveat of the
// recycling publish: a handle held open across two publishes ends up on
// the file the second one rewrote. A read that mixes the two artifacts
// must fail as ErrCorruptArtifact unless its bytes are one whole
// published artifact; it never decodes into a third dictionary.
func TestReadAcrossRecycledPublishes(t *testing.T) {
	first := testArtifact(t)
	later := testArtifact(t)
	later.Header.Circuit = "a later toy with a longer name"
	encFirst, encLater := encode(t, first), encode(t, later)
	mixed := 0
	path := filepath.Join(t.TempDir(), "toy.sdda")
	for k := 0; k < len(encFirst); k += len(encFirst)/16 + 1 {
		if err := first.Save(path); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		head := make([]byte, k)
		if _, err := io.ReadFull(f, head); err != nil {
			t.Fatal(err)
		}
		if err := first.Save(path); err != nil {
			t.Fatal(err)
		}
		if err := later.Save(path); err != nil {
			t.Fatal(err)
		}
		held, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		cur, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(held, cur) {
			t.Fatal("the second publish did not recycle the held file")
		}
		rest, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		read := append(head, rest...)
		_, err = dictio.Decode(bytes.NewReader(read))
		switch {
		case bytes.Equal(read, encFirst) || bytes.Equal(read, encLater):
			if err != nil {
				t.Fatalf("read split at byte %d is a whole artifact, yet: %v", k, err)
			}
		case !errors.Is(err, dictio.ErrCorruptArtifact):
			t.Fatalf("read split at byte %d mixes two artifacts: err = %v, want ErrCorruptArtifact", k, err)
		default:
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no split mixed the two artifacts")
	}
}

// TestTornTailDetected writes only a prefix of the encoding directly to
// the destination — the torn tail a non-atomic writer would leave — and
// requires the loader to reject it.
func TestTornTailDetected(t *testing.T) {
	data := encode(t, testArtifact(t))
	path := filepath.Join(t.TempDir(), "torn.sdda")
	err := core.AtomicWriteFile(path, func(w io.Writer) error {
		_, werr := w.Write(data[:len(data)/2])
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = dictio.Load(path)
	if !errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Fatalf("torn tail: err = %v, want ErrCorruptArtifact", err)
	}
}

// TestLoadFSInjectedReadFault distinguishes flaky media from
// corruption: a read failing mid-stream surfaces the injected error, not
// a corruption verdict against a file that is actually intact.
func TestLoadFSInjectedReadFault(t *testing.T) {
	a := testArtifact(t)
	path := filepath.Join(t.TempDir(), "toy.sdda")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fsys := faultfs.Flaky(faultfs.OS, 1, info.Size())
	_, err = dictio.LoadFS(fsys, path)
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("LoadFS under flaky media: err = %v, want ErrInjected", err)
	}
	if errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Fatalf("intact artifact misreported as corrupt under flaky media: %v", err)
	}
}

// TestSniffFileSubMagicMatrix: zero-length and 1..len(magic)-1 files
// are too short to be either artifact format — the verdict must be a
// wrapped ErrCorruptArtifact, never a raw io error (which would route
// cmd/diagnose into the bare-compiled loader) and never a panic. A full
// 4-byte prefix carrying the wrong magic is a clean "not an artifact".
func TestSniffFileSubMagicMatrix(t *testing.T) {
	data := encode(t, testArtifact(t))
	dir := t.TempDir()
	for size := 0; size < 4; size++ {
		path := filepath.Join(dir, "short.sdda")
		if err := os.WriteFile(path, data[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		ok, err := dictio.SniffFile(faultfs.OS, path)
		if ok {
			t.Fatalf("size %d: sniffed as artifact", size)
		}
		if !errors.Is(err, dictio.ErrCorruptArtifact) {
			t.Errorf("size %d: err = %v, want wrapped ErrCorruptArtifact", size, err)
		}
		// The decoder must agree on the same bytes.
		if _, err := dictio.Decode(bytes.NewReader(data[:size])); !errors.Is(err, dictio.ErrCorruptArtifact) {
			t.Errorf("size %d: Decode err = %v, want ErrCorruptArtifact", size, err)
		}
	}
	notArtifact := filepath.Join(dir, "elf.bin")
	if err := os.WriteFile(notArtifact, []byte{0x7f, 'E', 'L', 'F'}, 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, err := dictio.SniffFile(faultfs.OS, notArtifact); ok || err != nil {
		t.Errorf("foreign 4-byte magic: SniffFile = %v, %v; want false, nil", ok, err)
	}
}

// TestSniffFileMissing: a missing file keeps its os identity so callers
// can 404 instead of claiming corruption.
func TestSniffFileMissing(t *testing.T) {
	_, err := dictio.SniffFile(faultfs.OS, filepath.Join(t.TempDir(), "nope.sdda"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
	if errors.Is(err, dictio.ErrCorruptArtifact) {
		t.Errorf("missing file misreported as corrupt: %v", err)
	}
}

// TestTestSetChecksum pins the test-set identity: stable across
// republishes of the same dictionary, different once the baselines
// change, carried through the artifact header, and back-filled when
// decoding a pre-field artifact.
func TestTestSetChecksum(t *testing.T) {
	a := testArtifact(t)
	if a.Header.TestChecksum == "" || a.Header.TestChecksum != dictio.TestSetChecksum(a.Dict) {
		t.Fatalf("header test checksum %q, computed %q", a.Header.TestChecksum, dictio.TestSetChecksum(a.Dict))
	}
	got, err := dictio.Decode(bytes.NewReader(encode(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.TestChecksum != a.Header.TestChecksum {
		t.Errorf("decoded test checksum %q != published %q", got.Header.TestChecksum, a.Header.TestChecksum)
	}

	// A baseline flip changes the identity.
	b := testArtifact(t)
	b.Dict.Baseline[0] = b.Dict.Baseline[0].Clone()
	b.Dict.Baseline[0].Set(0, 1-b.Dict.Baseline[0].Get(0))
	if dictio.TestSetChecksum(b.Dict) == a.Header.TestChecksum {
		t.Error("baseline flip kept the same test-set checksum")
	}

	// Pre-field artifact (empty test_checksum in the header): Decode
	// adopts the computed identity so recall works on old artifacts.
	old := testArtifact(t)
	old.Header.TestChecksum = ""
	got, err = dictio.Decode(bytes.NewReader(encode(t, old)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.TestChecksum != dictio.TestSetChecksum(old.Dict) {
		t.Errorf("pre-field artifact: decoded test checksum %q, want back-filled %q",
			got.Header.TestChecksum, dictio.TestSetChecksum(old.Dict))
	}

	// A header claiming a different test-set identity than its own
	// baselines hash to is cross-section disagreement: both CRCs pass,
	// the semantic check must object.
	lying := testArtifact(t)
	lying.Header.TestChecksum = "deadbeef"
	wantDamageSentinel(t, encode(t, lying), "test-set checksum mismatch")
}

func TestParseVector(t *testing.T) {
	v, err := dictio.ParseVector("0101", 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.Get(0) != 0 || v.Get(1) != 1 || v.Get(2) != 0 || v.Get(3) != 1 {
		t.Errorf("parsed bits wrong: %s", v.String(4))
	}
	if _, err := dictio.ParseVector("01", 4); err == nil {
		t.Error("short vector accepted")
	}
	if _, err := dictio.ParseVector("01x1", 4); err == nil {
		t.Error("invalid character accepted")
	}
}

// TestParseVectorsMatchesParseVector checks the word-packed batch parser
// line by line against ParseVector on the trimmed line: values at every
// width up to 130 bits (both sides of each word boundary), padded and
// CRLF-terminated lines, wrong widths, and an invalid byte at every
// position, whose error text must be ParseVector's.
func TestParseVectorsMatchesParseVector(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for width := 1; width <= 130; width++ {
		var lines []string
		for k := 0; k < 4; k++ {
			b := make([]byte, width)
			for j := range b {
				b[j] = '0' + byte(r.Intn(2))
			}
			line := string(b)
			lines = append(lines, line, " "+line+"  ", line+"\r\n", "\t"+line)
		}
		lines = append(lines, strings.Repeat("0", width), strings.Repeat("1", width))
		got, err := dictio.ParseVectors(lines, width)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, line := range lines {
			want, err := dictio.ParseVector(strings.TrimSpace(line), width)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("width %d, line %q: got %s, want %s", width, line, got[i].String(width), want.String(width))
			}
		}

		good := lines[0]
		bad := []string{good[1:], good + "0"}
		for pos := 0; pos < width; pos++ {
			for _, c := range []string{"x", "2", "/", "\x00", "\xb1", " ", "é"} {
				bad = append(bad, good[:pos]+c+good[pos+1:])
			}
		}
		for _, line := range bad {
			_, want := dictio.ParseVector(strings.TrimSpace(line), width)
			_, err := dictio.ParseVectors([]string{good, line}, width)
			if want == nil || err == nil || err.Error() != "response 2: "+want.Error() {
				t.Fatalf("width %d, line %q: error %v, want response 2: %v", width, line, err, want)
			}
		}
	}

	// The vectors share one backing array; appending to one must not
	// overwrite the next.
	vs, err := dictio.ParseVectors([]string{strings.Repeat("0", 64), strings.Repeat("1", 64)}, 64)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(vs[0], 0xdead)
	if vs[1][0] != ^uint64(0) {
		t.Fatalf("append to vector 0 overwrote vector 1: %x", vs[1][0])
	}
}

func TestParseResponses(t *testing.T) {
	in := "010\n\n111\n"
	vs, err := dictio.ParseResponses(strings.NewReader(in), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("parsed %d vectors, want 2", len(vs))
	}
	if vs[1].PopCount() != 3 {
		t.Errorf("second vector: %s", vs[1].String(3))
	}
}

// BenchmarkParseVectors parses one observation of the serve-hot shape:
// 779 tests of 52 outputs.
func BenchmarkParseVectors(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	lines := make([]string, 779)
	for i := range lines {
		line := make([]byte, 52)
		for j := range line {
			line[j] = '0' + byte(r.Intn(2))
		}
		lines[i] = string(line)
	}
	for range b.N {
		if _, err := dictio.ParseVectors(lines, 52); err != nil {
			b.Fatal(err)
		}
	}
}
