package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
)

// maxBody caps every POST body; a larger one answers 413.
const maxBody = 32 << 20

// readBody reads the whole request body through the maxBody cap. A body
// over the cap answers 413, any other read failure 400. The buffer is
// sized from Content-Length up front, so a body arrives in a few large
// reads instead of many small ones through the connection's buffer; the
// up-front size stops at 1 MB, so a declared length alone cannot make
// the server allocate the whole cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), 1<<20)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "decoding request body: %v", err)
		return nil, false
	}
	return buf.Bytes(), true
}

// decodeDiagnoseRequest decodes a /diagnose body exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode would — same request,
// same error — but without encoding/json for bodies in the documented
// grammar (DESIGN.md §12, "Request decoding"). Anything else falls back
// to encoding/json on the same bytes.
func decodeDiagnoseRequest(body []byte) (DiagnoseRequest, error) {
	if req, ok := parseDiagnoseFast(body); ok {
		return req, nil
	}
	var req DiagnoseRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// parseDiagnoseFast parses a body in the documented request grammar in
// one pass and reports false — declining, never erroring — for anything
// outside it: a top-level value other than an object; a key other than
// the exact field tags, or one given twice; a string with an escape, a
// control character or a non-ASCII byte; a null; a top_k that is not a
// plain integer fitting an int. Inside the grammar, encoding/json would
// decode the same request without error, so declining is the only way
// the two can differ. Data after the closing brace is ignored, as
// json.Decoder ignores it. The body becomes one string, and every
// decoded string is a substring of it.
func parseDiagnoseFast(body []byte) (DiagnoseRequest, bool) {
	p := &reqParser{s: string(body)}
	var req DiagnoseRequest
	if !p.byte('{') {
		return req, false
	}
	if p.byte('}') {
		return req, true
	}
	var seen uint8
	for {
		key, ok := p.str()
		if !ok || !p.byte(':') {
			return req, false
		}
		var bit uint8
		switch key {
		case "dictionary":
			bit = 1
			req.Dictionary, ok = p.str()
		case "responses":
			bit = 2
			req.Responses, ok = p.strs()
		case "batch":
			bit = 4
			req.Batch, ok = array(p, p.strs)
		case "top_k":
			bit = 8
			req.TopK, ok = p.int()
		default:
			return req, false
		}
		if !ok || seen&bit != 0 {
			return req, false
		}
		seen |= bit
		if p.byte('}') {
			return req, true
		}
		if !p.byte(',') {
			return req, false
		}
	}
}

// reqParser is the cursor of parseDiagnoseFast. Every method skips JSON
// white space first and reports false on input outside the grammar.
type reqParser struct {
	s string
	i int
}

func (p *reqParser) skipSpace() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// byte consumes c.
func (p *reqParser) byte(c byte) bool {
	p.skipSpace()
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII without escapes.
func (p *reqParser) str() (string, bool) {
	if !p.byte('"') {
		return "", false
	}
	for j := p.i; j < len(p.s); j++ {
		switch c := p.s[j]; {
		case c == '"':
			s := p.s[p.i:j]
			p.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", false
		}
	}
	return "", false
}

// array reads a JSON array whose elements elem reads; [] is an empty,
// non-nil slice, as encoding/json makes it.
func array[T any](p *reqParser, elem func() (T, bool)) ([]T, bool) {
	if !p.byte('[') {
		return nil, false
	}
	out := []T{}
	if p.byte(']') {
		return out, true
	}
	for {
		v, ok := elem()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if p.byte(']') {
			return out, true
		}
		if !p.byte(',') {
			return nil, false
		}
	}
}

// strs reads an array of strings.
func (p *reqParser) strs() ([]string, bool) { return array(p, p.str) }

// int reads a JSON integer that fits an int. A fraction or exponent
// after it is left unread, and the object grammar then declines it.
func (p *reqParser) int() (int, bool) {
	p.skipSpace()
	start := p.i
	if p.i < len(p.s) && p.s[p.i] == '-' {
		p.i++
	}
	digits := p.i
	for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
		p.i++
	}
	if n := p.i - digits; n == 0 || n > 1 && p.s[digits] == '0' {
		return 0, false
	}
	v, err := strconv.Atoi(p.s[start:p.i])
	return v, err == nil
}
