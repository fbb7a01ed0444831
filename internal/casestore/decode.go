package casestore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strconv"
)

// Slab sizes: decoded signatures and candidate lists are carved from
// shared backing arrays of this many elements (64 KB each), so a 10^5-
// case snapshot costs a few hundred allocations instead of two per case.
const (
	wordSlab = 8 << 10
	candSlab = 2 << 10
)

// caseDecoder decodes the snapshot and the journal lines of one open.
// Each value goes through a one-pass parser for the grammar
// encoding/json writes for Case (DESIGN.md §15, "Opening the store");
// a value outside it is decoded by json.Unmarshal from the same bytes,
// so every case, error and ErrCorruptStore verdict is what
// json.Unmarshal alone would give. Decoded strings are interned per
// open, and signatures and candidate lists are windows of shared slabs
// whose capacity ends at their length, so an append to one case always
// reallocates instead of writing into its neighbour.
type caseDecoder struct {
	b []byte
	i int

	strs  map[string]string
	words []uint64    // current signature slab
	cands []Candidate // current candidate slab
	wbuf  []uint64    // scratch for the signature being read
	cbuf  []Candidate // scratch for the candidate list being read

	declined int // values handed to json.Unmarshal
}

func newCaseDecoder() *caseDecoder {
	return &caseDecoder{strs: make(map[string]string)}
}

// snapshot decodes data as json.Unmarshal into []Case would.
func (d *caseDecoder) snapshot(data []byte) ([]Case, error) {
	if cases, ok := d.parseCases(data); ok {
		return cases, nil
	}
	d.declined++
	var cases []Case
	err := json.Unmarshal(data, &cases)
	return cases, err
}

// line decodes one journal line as json.Unmarshal into Case would.
func (d *caseDecoder) line(data []byte) (Case, error) {
	var c Case
	if d.parseCase(data, &c) {
		return c, nil
	}
	d.declined++
	c = Case{}
	err := json.Unmarshal(data, &c)
	return c, err
}

// parseCases parses a JSON array of cases and reports false — declining,
// never erroring — for anything outside the grammar: a key other than
// the exact field tags, or one given twice; a string with an escape, a
// control character or a non-ASCII byte; null; a number with a
// fraction, an exponent or a leading zero, or one that overflows its
// field; a negative signature word; anything but white space after the
// value. Inside the grammar json.Unmarshal decodes the same cases
// without error, so declining is the only way the two can differ.
func (d *caseDecoder) parseCases(data []byte) ([]Case, bool) {
	d.b, d.i = data, 0
	if !d.byte('[') {
		return nil, false
	}
	// encoding/json writes `{"id":` once per case and nowhere else, and
	// spends over 128 bytes on each case's keys alone. The smaller count
	// sizes the slice for a snapshot this package wrote without letting
	// a damaged one allocate much more than its own size; append takes
	// care of any other count.
	cases := make([]Case, 0, min(bytes.Count(data, []byte(`{"id":`)), len(data)/128))
	if !d.byte(']') {
		for {
			cases = append(cases, Case{})
			if !d.object(&cases[len(cases)-1]) {
				return nil, false
			}
			if d.byte(']') {
				break
			}
			if !d.byte(',') {
				return nil, false
			}
		}
	}
	return cases, d.end()
}

// parseCase parses one case object in the parseCases grammar into c.
func (d *caseDecoder) parseCase(data []byte, c *Case) bool {
	d.b, d.i = data, 0
	return d.object(c) && d.end()
}

// end reports whether only white space is left.
func (d *caseDecoder) end() bool {
	d.skipSpace()
	return d.i == len(d.b)
}

// object reads one case object into c.
func (d *caseDecoder) object(c *Case) bool {
	if !d.byte('{') {
		return false
	}
	if d.byte('}') {
		return true
	}
	var seen uint16
	for {
		key, ok := d.str()
		if !ok || !d.byte(':') {
			return false
		}
		var bit uint16
		switch string(key) {
		case "id":
			bit = 1 << 0
			c.ID, ok = d.int(64)
		case "t_ms":
			bit = 1 << 1
			c.TimeMs, ok = d.int(64)
		case "circuit":
			bit = 1 << 2
			c.Circuit, ok = d.interned()
		case "test_set":
			bit = 1 << 3
			c.TestSet, ok = d.interned()
		case "checksum":
			bit = 1 << 4
			c.Checksum, ok = d.interned()
		case "test_checksum":
			bit = 1 << 5
			c.TestChecksum, ok = d.interned()
		case "sig_bits":
			bit = 1 << 6
			c.SigBits, ok = d.plainInt()
		case "signature":
			bit = 1 << 7
			c.Signature, ok = d.signature()
		case "exact":
			bit = 1 << 8
			c.Exact, ok = d.bool()
		case "top_k":
			bit = 1 << 9
			c.TopK, ok = d.plainInt()
		case "failing":
			bit = 1 << 10
			c.Failing, ok = d.plainInt()
		case "candidates":
			bit = 1 << 11
			c.Candidates, ok = d.candidates()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.byte('}') {
			return true
		}
		if !d.byte(',') {
			return false
		}
	}
}

// candidate reads one candidate object into c.
func (d *caseDecoder) candidate(c *Candidate) bool {
	if !d.byte('{') {
		return false
	}
	if d.byte('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := d.str()
		if !ok || !d.byte(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "fault":
			bit = 1
			c.Fault, ok = d.plainInt()
		case "name":
			bit = 2
			c.Name, ok = d.interned()
		case "distance":
			bit = 4
			c.Distance, ok = d.plainInt()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.byte('}') {
			return true
		}
		if !d.byte(',') {
			return false
		}
	}
}

// signature reads an array of uint64 words; [] is an empty, non-nil
// slice, as encoding/json makes it.
func (d *caseDecoder) signature() ([]uint64, bool) {
	if !d.byte('[') {
		return nil, false
	}
	d.wbuf = d.wbuf[:0]
	if !d.byte(']') {
		for {
			d.skipSpace()
			w, ok := d.digits()
			if !ok {
				return nil, false
			}
			d.wbuf = append(d.wbuf, w)
			if d.byte(']') {
				break
			}
			if !d.byte(',') {
				return nil, false
			}
		}
	}
	return carve(&d.words, d.wbuf, wordSlab), true
}

// candidates reads an array of candidate objects.
func (d *caseDecoder) candidates() ([]Candidate, bool) {
	if !d.byte('[') {
		return nil, false
	}
	d.cbuf = d.cbuf[:0]
	if !d.byte(']') {
		for {
			d.cbuf = append(d.cbuf, Candidate{})
			if !d.candidate(&d.cbuf[len(d.cbuf)-1]) {
				return nil, false
			}
			if d.byte(']') {
				break
			}
			if !d.byte(',') {
				return nil, false
			}
		}
	}
	return carve(&d.cands, d.cbuf, candSlab), true
}

// carve copies items into the tail of *slab, starting a new slab of at
// least chunk elements when they do not fit, and returns their window
// with capacity equal to length. No items is an empty, non-nil slice.
func carve[T any](slab *[]T, items []T, chunk int) []T {
	if len(items) == 0 {
		return []T{}
	}
	if cap(*slab)-len(*slab) < len(items) {
		*slab = make([]T, 0, max(chunk, len(items)))
	}
	start := len(*slab)
	*slab = append(*slab, items...)
	end := len(*slab)
	return (*slab)[start:end:end]
}

func (d *caseDecoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// byte consumes c after optional white space.
func (d *caseDecoder) byte(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	d.skipSpace()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str reads a string of bytes 0x20–0x7f without escapes and returns
// them; they alias the input.
func (d *caseDecoder) str() ([]byte, bool) {
	if !d.byte('"') {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// interned reads a string and returns the open's one copy of it.
func (d *caseDecoder) interned() (string, bool) {
	b, ok := d.str()
	if !ok {
		return "", false
	}
	if s, hit := d.strs[string(b)]; hit {
		return s, true
	}
	s := string(b)
	d.strs[s] = s
	return s, true
}

// bool reads true or false.
func (d *caseDecoder) bool() (bool, bool) {
	d.skipSpace()
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
		return false, true
	}
	return false, false
}

// digits reads an unsigned JSON integer (no sign, no leading zero) that
// fits a uint64. A fraction or exponent after it is left unread, and
// the surrounding grammar then declines it. Up to the first 16 digits
// are read eight at a time.
func (d *caseDecoder) digits() (uint64, bool) {
	start := d.i
	var v, last uint64
	for k := 0; k < 2 && len(d.b)-d.i >= 8; k++ {
		w, ok := eightDigits(d.b[d.i:])
		if !ok {
			break
		}
		v = v*1e8 + w
		d.i += 8
	}
	for ; d.i < len(d.b); d.i++ {
		c := d.b[d.i] - '0'
		if c > 9 {
			break
		}
		last = v
		v = v*10 + uint64(c)
	}
	switch n := d.i - start; {
	case n == 0 || n > 1 && d.b[start] == '0' || n > 20:
		return 0, false
	case n == 20:
		// The first 19 digits cannot overflow; the 20th fits only under
		// math.MaxUint64 = 1844674407370955161*10 + 5.
		const head, tail = math.MaxUint64 / 10, math.MaxUint64 % 10
		if c := uint64(d.b[d.i-1] - '0'); last > head || last == head && c > tail {
			return 0, false
		}
	}
	return v, true
}

// eightDigits returns the value of the eight ASCII digits b[:8], or
// false if one of them is not a digit. The first digit is the low byte
// of the little-endian word; three multiply-shift steps fold byte pairs,
// then 16-bit pairs, then the two halves.
func eightDigits(b []byte) (uint64, bool) {
	x := binary.LittleEndian.Uint64(b)
	const hi, zeros = 0xF0F0F0F0F0F0F0F0, 0x3030303030303030
	if x&hi != zeros || (x+0x0606060606060606)&hi != zeros {
		return 0, false
	}
	x -= zeros
	x = (x*10 + x>>8) & 0x00FF00FF00FF00FF
	x = (x*100 + x>>16) & 0x0000FFFF0000FFFF
	x = (x*10000 + x>>32) & 0xFFFFFFFF
	return x, true
}

// int reads a JSON integer that fits a signed integer of the given
// width.
func (d *caseDecoder) int(bits int) (int64, bool) {
	d.skipSpace()
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	u, ok := d.digits()
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	if !ok || u > limit {
		return 0, false
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// plainInt reads a JSON integer that fits an int.
func (d *caseDecoder) plainInt() (int, bool) {
	v, ok := d.int(strconv.IntSize)
	return int(v), ok
}
