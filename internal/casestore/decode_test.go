package casestore

// Opening the store: the one-pass snapshot/journal decoder against
// encoding/json (differential fuzz plus the seeds worth keeping), and
// the open benchmark.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// genCases returns n cases shaped like a served store's: a 787-bit
// signature in 13 words and one to five candidates named from names.
func genCases(r *rand.Rand, n int, names []string) []Case {
	cases := make([]Case, n)
	for i := range cases {
		c := Case{
			ID: int64(i + 1), TimeMs: 1_700_000_000_000 + int64(i),
			Circuit: "s953", TestSet: "10det", Checksum: "671cd543", TestChecksum: "e4b2fc4b",
			SigBits: 787, Signature: make([]uint64, 13),
			Exact: r.Intn(4) != 0, TopK: 5, Failing: r.Intn(787),
		}
		for w := range c.Signature {
			c.Signature[w] = r.Uint64()
		}
		for range 1 + r.Intn(5) {
			f := r.Intn(len(names))
			c.Candidates = append(c.Candidates, Candidate{Fault: f, Name: names[f], Distance: r.Intn(3)})
		}
		cases[i] = c
	}
	return cases
}

// faultNames returns n plain candidate names.
func faultNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("g%d s-a-%d", i/2, i%2)
	}
	return names
}

// escapedNames are candidate names encoding/json writes with an escape
// (quote, backslash, the HTML-safe \u003c \u003e \u0026, U+2028) or
// with bytes >= 0x80, so every value holding one takes the
// encoding/json path.
var escapedNames = []string{`g1 "s-a-0"`, `g2\s-a-1`, `<g3> & s-a-0`, "g4 é s-a-1", "g5\u2028s-a-0"}

// FuzzDecodeCasesMatchesJSON checks the open's decoder against the
// decoder it replaces: for any input, the snapshot decode gives the
// same cases (reflect.DeepEqual) and the same error text as
// json.Unmarshal into []Case, and the journal-line decode the same as
// json.Unmarshal into Case. An input the fast parser accepts must be
// one encoding/json decodes without error, and its slices must end
// their capacity at their length.
func FuzzDecodeCasesMatchesJSON(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, cases := range [][]Case{
		genCases(r, 3, faultNames(8)),
		genCases(r, 2, escapedNames),
		{{}, {Signature: []uint64{}, Candidates: []Candidate{}}},
	} {
		data, err := json.Marshal(cases)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		line, err := json.Marshal(cases[0])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	for _, s := range []string{
		`[]`, `{}`, ` [ { "id" : 1 , "signature" : [ 0 , 18446744073709551615 ] } ] ` + "\n",
		`[{"candidates":[{"fault":1,"name":"a","distance":2},{}]}]`,
		`{"signature":[1,2,3,4,5,6,7,8,9,10,11,12]}`, `{"signature":[12345678,123456789,1234567890123456,12345678901234567]}`,
		// null anywhere
		`null`, `[null]`, `{"signature":null}`, `{"candidates":null}`, `{"candidates":[null]}`, `{"circuit":null}`,
		// unknown, case-variant, escaped and duplicate keys
		`{"extra":1}`, `{"ID":1}`, `{"Signature":[1]}`, `{"s\u0069g_bits":1}`, `{"top_\u212a":5}`,
		`{"id":1,"id":2}`, `{"candidates":[{"name":"a","name":"b"}]}`, `{"candidates":[{"Fault":1}]}`,
		`{"signature":[1,2],"signature":[3]}`, `{"candidates":[{"fault":1,"name":"a"}],"candidates":[{"distance":2}]}`,
		// escapes and bytes outside printable ASCII
		`{"circuit":"a\"b"}`, `{"circuit":"a\\b"}`, `{"circuit":"\u003c"}`, `{"circuit":"é"}`,
		"{\"circuit\":\"\xff\"}", "{\"circuit\":\"a\tb\"}", `{"circuit":"` + "\x7f" + `"}`,
		// numbers outside the grammar or their field
		`{"id":01}`, `{"id":1.0}`, `{"id":1e2}`, `{"id":-0}`, `{"id":-}`, `{"id":"1"}`,
		`{"id":9223372036854775807}`, `{"id":9223372036854775808}`, `{"id":-9223372036854775808}`, `{"id":-9223372036854775809}`,
		`{"signature":[18446744073709551616]}`, `{"signature":[-1]}`, `{"signature":[-0]}`, `{"signature":[1.5]}`,
		`{"signature":[1234567?]}`, `{"id":1234567:}`, `{"signature":[123456789012345/]}`,
		`{"exact":true}`, `{"exact":false}`, `{"exact":truex}`, `{"exact":1}`, `{"exact":"true"}`,
		// trailing data and syntax errors
		`[] x`, `[]]`, `{"id":1}{"id":2}`, `{"id":1}x`, ``, `  `, `[`, `[{`, `[{},]`, `{"id":1,}`,
		`{"signature":[1,]}`, `[{}{}]`, `"x"`, `5`, "\ufeff[]",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []Case
		wantErr := json.Unmarshal(data, &want)
		dec := newCaseDecoder()
		got, err := dec.snapshot(data)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot %q:\nfast %#v, %v\njson %#v, %v", data, got, err, want, wantErr)
		}
		if dec.declined == 0 {
			if wantErr != nil {
				t.Fatalf("snapshot %q: fast path accepted what encoding/json rejects: %v", data, wantErr)
			}
			for _, c := range got {
				checkWindows(t, c)
			}
		}

		var wantOne Case
		wantErr = json.Unmarshal(data, &wantOne)
		dec = newCaseDecoder()
		one, err := dec.line(data)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(one, wantOne) {
			t.Fatalf("line %q:\nfast %#v, %v\njson %#v, %v", data, one, err, wantOne, wantErr)
		}
		if dec.declined == 0 {
			if wantErr != nil {
				t.Fatalf("line %q: fast path accepted what encoding/json rejects: %v", data, wantErr)
			}
			checkWindows(t, one)
		}
	})
}

// TestFastPathAcceptsGrammar: values inside the grammar, at the edges
// of their fields' ranges, take the fast path — declining them would
// be correct but would hand them to encoding/json.
func TestFastPathAcceptsGrammar(t *testing.T) {
	for _, s := range []string{
		`{}`, ` { "id" : -9223372036854775808 , "t_ms" : 9223372036854775807 } ` + "\r\n",
		`{"id":-0,"sig_bits":0,"signature":[],"candidates":[]}`,
		`{"signature":[0,9,10,99999999,100000000,9999999999999999,10000000000000000,18446744073709551615]}`,
		`{"exact":true,"circuit":"` + "\x7f" + ` ~!#$%&'()*+,-./:;<=>?@[]^_{|}","candidates":[{"fault":-1,"name":"","distance":3}]}`,
	} {
		var c Case
		if !newCaseDecoder().parseCase([]byte(s), &c) {
			t.Errorf("fast path declined %s", s)
		}
	}
}

// checkWindows fails unless c's slab-carved slices end their capacity
// at their length.
func checkWindows(t *testing.T, c Case) {
	t.Helper()
	if cap(c.Signature) != len(c.Signature) || cap(c.Candidates) != len(c.Candidates) {
		t.Fatalf("case %d: signature len %d cap %d, candidates len %d cap %d; want cap == len",
			c.ID, len(c.Signature), cap(c.Signature), len(c.Candidates), cap(c.Candidates))
	}
}

// BenchmarkOpenDir opens a generated 10^4-case snapshot, the shape of
// the serve-cold store: the snapshot read, its decode, and the sort.
func BenchmarkOpenDir(b *testing.B) {
	dir := b.TempDir()
	cases := genCases(rand.New(rand.NewSource(1)), 10_000, faultNames(1000))
	data, err := json.Marshal(cases)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName), data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		f, err := OpenDir(dir, FileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if f.Declined() != 0 || len(f.loaded) != len(cases) {
			b.Fatalf("opened %d cases with %d declines, want %d and 0", len(f.loaded), f.Declined(), len(cases))
		}
		f.Close()
	}
}
