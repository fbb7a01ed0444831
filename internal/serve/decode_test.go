package serve

// Request decoding: the one-pass /diagnose parser against encoding/json
// (differential fuzz plus the seeds worth keeping), the guarantee that
// the bodies cmd/sddload sends take the fast path, and the 413 answer
// for bodies over the cap.

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// sddloadBody is a /diagnose body shaped as cmd/sddload and perfbench
// send it: json.Marshal of a DiagnoseRequest with tests lines of width
// outputs, as a single observation or a batch of batch observations.
func sddloadBody(t testing.TB, tests, outputs, batch int) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	obs := func() []string {
		lines := make([]string, tests)
		for i := range lines {
			b := make([]byte, outputs)
			for j := range b {
				b[j] = '0' + byte(r.Intn(2))
			}
			lines[i] = string(b)
		}
		return lines
	}
	req := DiagnoseRequest{Dictionary: "/srv/dicts/s1196-diag.sdd", TopK: 5}
	if batch == 0 {
		req.Responses = obs()
	} else {
		for range batch {
			req.Batch = append(req.Batch, obs())
		}
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzDecodeDiagnoseMatchesJSON checks decodeDiagnoseRequest against the
// decoder it replaces: for any body, the same request (reflect.DeepEqual)
// and the same error text as json.NewDecoder(...).Decode. A body the fast
// parser accepts must be one encoding/json decodes without error.
func FuzzDecodeDiagnoseMatchesJSON(f *testing.F) {
	f.Add(sddloadBody(f, 12, 9, 0))
	f.Add(sddloadBody(f, 4, 70, 3))
	for _, s := range []string{
		`{"dictionary":"a.sdd","responses":["01","10"],"top_k":3}`,
		`{"dictionary":"a.sdd","batch":[["01"],[],["10","11"]]}`,
		` { "dictionary" : "a.sdd" ,` + "\n\t\r" + ` "responses" : [ "01" , "1 0" ] } `,
		`{}`, `{"responses":[]}`, `{"batch":[]}`, `{"batch":[[]]}`,
		`{"dictionary":"a\u0041.sdd"}`, `{"dictionary":"a\"b"}`, `{"dict\u0069onary":"a"}`,
		`{"responses":["0\n1"]}`, `{"dictionary":"é.sdd"}`, "{\"dictionary\":\"\xff\"}", `{"dictionary":"` + "\x7f" + `"}`,
		`{"top_k":0}`, `{"top_k":-0}`, `{"top_k":-7}`, `{"top_k":01}`, `{"top_k":1.0}`, `{"top_k":1e2}`,
		`{"top_k":-}`, `{"top_k":99999999999999999999}`, `{"top_k":9223372036854775807}`, `{"top_k":"5"}`,
		`{"Dictionary":"a"}`, `{"TOP_K":5}`, `{"top_\u212a":5}`, `{"extra":1,"dictionary":"a"}`,
		`{"dictionary":"a","dictionary":"b"}`, `{"responses":["0"],"responses":["1"]}`,
		`null`, `{"dictionary":null}`, `{"responses":null}`, `{"batch":[null]}`, `{"responses":[null]}`,
		`{"dictionary":"a"} trailing`, `{"dictionary":"a"}{"dictionary":"b"}`, `{"dictionary":"a"}]`,
		``, `   `, `{`, `{"dictionary"`, `{"dictionary":"a",}`, `{"responses":["0",]}`, `{"dictionary":"a"`,
		`[]`, `"x"`, `5`, "\ufeff{}", `{"dictionary":5}`, `{"responses":"01"}`, `{"batch":["01"]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want DiagnoseRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if fast, ok := parseDiagnoseFast(body); ok {
			if wantErr != nil {
				t.Fatalf("fast path accepted %q, encoding/json refuses it: %v", body, wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path on %q:\n got %#v\nwant %#v", body, fast, want)
			}
		}
		got, err := decodeDiagnoseRequest(body)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error on %q: got %v, want %v", body, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request on %q:\n got %#v\nwant %#v", body, got, want)
		}
	})
}

// TestSddloadBodiesTakeFastPath guards the gain: the bodies real clients
// send must not silently fall back to encoding/json.
func TestSddloadBodiesTakeFastPath(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int
	}{{"single", 0}, {"batch", 4}} {
		body := sddloadBody(t, 779, 52, tc.batch)
		got, ok := parseDiagnoseFast(body)
		if !ok {
			t.Fatalf("%s: sddload-shaped body fell back to encoding/json", tc.name)
		}
		var want DiagnoseRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fast path decoded a different request", tc.name)
		}
	}
}

// TestBodyOverCapAnswers413 sends a body one byte over the cap to every
// POST route that reads one.
func TestBodyOverCapAnswers413(t *testing.T) {
	s := New(Config{})
	body := strings.Repeat(" ", maxBody+1)
	for _, route := range []string{"/diagnose", "/dictionaries/load", "/dictionaries/evict"} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, route, strings.NewReader(body)))
		if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), "request body too large") {
			t.Errorf("%s: status %d (%s), want 413", route, w.Code, w.Body.String())
		}
	}
	// At the cap exactly the body is read and refused as JSON instead.
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(body[1:])))
	if w.Code != http.StatusBadRequest {
		t.Errorf("body at the cap: status %d (%s), want 400", w.Code, w.Body.String())
	}
}

func BenchmarkDecodeDiagnose(b *testing.B) {
	body := sddloadBody(b, 779, 52, 0)
	b.SetBytes(int64(len(body)))
	b.Run("fast", func(b *testing.B) {
		for range b.N {
			if _, err := decodeDiagnoseRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		for range b.N {
			var req DiagnoseRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
