package bench

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse exercises the .bench parser with arbitrary input: it must
// never panic, and whenever it accepts an input, writing the parsed
// circuit back out and re-parsing must yield an identical structure.
func FuzzParse(f *testing.F) {
	f.Add(tinyBench)
	f.Add(gibberishSeed)
	f.Add("INPUT(a)\nOUTPUT(a)\n")
	f.Add("INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n")
	f.Add("x = AND(x, x)\nOUTPUT(x)\n") // self-cycle
	f.Add("INPUT(a)\nb = DFF(b)\nOUTPUT(b)\n")
	// Malformed-netlist corpus: each seed aims at a distinct failure path.
	f.Add("INPUT(a)\nINPUT(a)\n")                             // duplicate input
	f.Add("INPUT(a)\na = NOT(a)\nOUTPUT(a)\n")                // input redefined
	f.Add("INPUT(a)\ny = NOT(zzz)\nOUTPUT(y)\n")              // undefined fanin
	f.Add("OUTPUT(q)\n")                                      // undefined output
	f.Add("INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n")               // unknown type
	f.Add("INPUT(a)\ny = AND(a, )\nOUTPUT(y)\n")              // empty fanin
	f.Add("INPUT(a)\ny =\nOUTPUT(y)\n")                       // missing rhs
	f.Add("INPUT()\n")                                        // empty declaration
	f.Add("INPUT a\n")                                        // missing paren
	f.Add(" = AND(a, b)\n")                                   // missing lhs
	f.Add("INPUT(a)\np = NOT(q)\nq = AND(p, a)\nOUTPUT(q)\n") // 2-cycle
	f.Add("y = NOT(#)\n")                                     // comment mid-token
	f.Add("INPUT(a)\r\ny = NOT(a)\r\nOUTPUT(y)\r\n")          // CRLF line endings
	f.Add(strings.Repeat("(", 100))                           // paren noise
	f.Add("INPUT(a)\nOUTPUT(y)\ny = BUFF(a, a, a)\n")         // extra fanins
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(strings.NewReader(src), "fuzz")
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if werr := Write(&buf, c); werr != nil {
			// Only constant gates are unwritable, and Parse never
			// produces them.
			t.Fatalf("parsed circuit unwritable: %v", werr)
		}
		c2, rerr := Parse(bytes.NewReader(buf.Bytes()), "fuzz")
		if rerr != nil {
			t.Fatalf("round trip failed: %v\noriginal:\n%s\nrendered:\n%s", rerr, src, buf.String())
		}
		if c.Stat() != c2.Stat() {
			t.Fatalf("round trip changed structure: %+v vs %+v", c.Stat(), c2.Stat())
		}
	})
}

const gibberishSeed = "INPUT(\ny == NOT))\n# OUTPUT(y\n"
