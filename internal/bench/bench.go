// Package bench reads and writes gate-level netlists in the ISCAS-89
// ".bench" format, the standard interchange format for the benchmark
// circuits used in the paper's evaluation (s208 … s9234).
//
// The grammar handled:
//
//	# comment
//	INPUT(name)
//	OUTPUT(name)
//	name = TYPE(arg, arg, ...)
//
// where TYPE is one of AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF/BUFF, DFF.
package bench

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"sddict/internal/netlist"
)

var typeByName = map[string]netlist.GateType{
	"AND":  netlist.And,
	"NAND": netlist.Nand,
	"OR":   netlist.Or,
	"NOR":  netlist.Nor,
	"XOR":  netlist.Xor,
	"XNOR": netlist.Xnor,
	"NOT":  netlist.Not,
	"BUF":  netlist.Buf,
	"BUFF": netlist.Buf,
	"DFF":  netlist.DFF,
}

var nameByType = map[netlist.GateType]string{
	netlist.And:  "AND",
	netlist.Nand: "NAND",
	netlist.Or:   "OR",
	netlist.Nor:  "NOR",
	netlist.Xor:  "XOR",
	netlist.Xnor: "XNOR",
	netlist.Not:  "NOT",
	netlist.Buf:  "BUFF",
	netlist.DFF:  "DFF",
}

// Error describes a .bench parse failure with the file and line it was
// found on, so malformed netlists can be fixed without guessing.
type Error struct {
	File string
	Line int // 1-based; 0 when the failure is not tied to one line
	Msg  string
}

func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("bench: %s:%d: %s", e.File, e.Line, e.Msg)
	}
	return fmt.Sprintf("bench: %s: %s", e.File, e.Msg)
}

func errf(file string, line int, format string, args ...interface{}) *Error {
	return &Error{File: file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

type rawGate struct {
	name  string
	typ   netlist.GateType
	fanin []string
	line  int
}

type decl struct {
	name string
	line int
}

// Parse reads a .bench netlist. The circuit name is taken from the caller
// since the format carries none; it is also used as the file name in
// errors, which are always *Error values locating the failure.
func Parse(r io.Reader, name string) (*netlist.Circuit, error) {
	var (
		inputs  []decl
		outputs []decl
		gates   []rawGate
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(strings.ToUpper(line), "INPUT("):
			arg, err := parenArg(name, lineNo, line)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, decl{arg, lineNo})
		case strings.HasPrefix(strings.ToUpper(line), "OUTPUT("):
			arg, err := parenArg(name, lineNo, line)
			if err != nil {
				return nil, err
			}
			outputs = append(outputs, decl{arg, lineNo})
		default:
			if up := strings.ToUpper(line); !strings.ContainsRune(line, '=') &&
				(strings.HasPrefix(up, "INPUT") || strings.HasPrefix(up, "OUTPUT")) {
				return nil, errf(name, lineNo, "malformed declaration %q (want INPUT(signal) or OUTPUT(signal))", line)
			}
			g, err := parseAssign(name, lineNo, line)
			if err != nil {
				return nil, err
			}
			gates = append(gates, g)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, errf(name, lineNo, "read error: %v", err)
	}

	b := netlist.NewBuilder(name)
	ids := make(map[string]int32, len(inputs)+len(gates))
	defLine := make(map[string]int, len(inputs)+len(gates))
	declare := func(nm string, id int32, line int) error {
		if first, dup := defLine[nm]; dup {
			return errf(name, line, "signal %q defined twice (first defined at line %d)", nm, first)
		}
		ids[nm] = id
		defLine[nm] = line
		return nil
	}
	for _, in := range inputs {
		if err := declare(in.name, b.Input(in.name), in.line); err != nil {
			return nil, err
		}
	}
	// First pass declares every gate with no fanins resolved yet: .bench
	// files reference signals before definition.
	gateIDs := make([]int32, len(gates))
	for i, g := range gates {
		gateIDs[i] = b.Gate(g.typ, g.name) // fanins patched below
		if err := declare(g.name, gateIDs[i], g.line); err != nil {
			return nil, err
		}
	}
	for i, g := range gates {
		fanin := make([]int32, len(g.fanin))
		for j, fn := range g.fanin {
			id, ok := ids[fn]
			if !ok {
				return nil, errf(name, g.line, "gate %q reads undefined signal %q", g.name, fn)
			}
			fanin[j] = id
		}
		b.SetFanin(gateIDs[i], fanin...)
	}
	if err := checkAcyclic(name, gates); err != nil {
		return nil, err
	}
	for _, out := range outputs {
		id, ok := ids[out.name]
		if !ok {
			return nil, errf(name, out.line, "OUTPUT(%s): undefined signal", out.name)
		}
		b.Output(id)
	}
	c, err := b.Build()
	if err != nil {
		return nil, errf(name, 0, "%v", err)
	}
	return c, nil
}

// checkAcyclic rejects combinational cycles among the parsed gates before
// handing them to the netlist builder, so the error can name the signals
// involved instead of just reporting that a cycle exists. Edges through a
// DFF do not count: its Q output does not combinationally depend on D.
func checkAcyclic(file string, gates []rawGate) error {
	index := make(map[string]int, len(gates))
	for i, g := range gates {
		index[g.name] = i
	}
	indeg := make([]int, len(gates))
	adj := make([][]int, len(gates))
	for i, g := range gates {
		if g.typ == netlist.DFF {
			continue
		}
		for _, fn := range g.fanin {
			if j, ok := index[fn]; ok {
				adj[j] = append(adj[j], i)
				indeg[i]++
			}
		}
	}
	queue := make([]int, 0, len(gates))
	for i := range gates {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		done++
		for _, s := range adj[g] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if done == len(gates) {
		return nil
	}
	// Everything left has indeg > 0: it is on or downstream of a cycle.
	// Report the earliest-defined survivor and its companions.
	var cyclic []string
	first := -1
	for i := range gates {
		if indeg[i] > 0 {
			cyclic = append(cyclic, gates[i].name)
			if first < 0 || gates[i].line < gates[first].line {
				first = i
			}
		}
	}
	const show = 6
	names := cyclic
	suffix := ""
	if len(names) > show {
		names = names[:show]
		suffix = fmt.Sprintf(", ... (%d signals total)", len(cyclic))
	}
	return errf(file, gates[first].line,
		"combinational cycle through %s%s; break the loop with a DFF or remove the feedback",
		strings.Join(names, " -> "), suffix)
}

func parenArg(file string, lineNo int, line string) (string, error) {
	open := strings.IndexByte(line, '(')
	close := strings.LastIndexByte(line, ')')
	if open < 0 || close < open {
		return "", errf(file, lineNo, "malformed declaration %q (want NAME(signal))", line)
	}
	arg := strings.TrimSpace(line[open+1 : close])
	if arg == "" {
		return "", errf(file, lineNo, "empty argument in %q", line)
	}
	return arg, nil
}

func parseAssign(file string, lineNo int, line string) (rawGate, error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return rawGate{}, errf(file, lineNo, "expected assignment, got %q", line)
	}
	name := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	close := strings.LastIndexByte(rhs, ')')
	if name == "" || open <= 0 || close < open {
		return rawGate{}, errf(file, lineNo, "malformed gate %q (want name = TYPE(a, b, ...))", line)
	}
	tname := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	typ, ok := typeByName[tname]
	if !ok {
		return rawGate{}, errf(file, lineNo, "unknown gate type %q", tname)
	}
	var fanin []string
	for _, f := range strings.Split(rhs[open+1:close], ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			return rawGate{}, errf(file, lineNo, "empty fanin in %q", line)
		}
		fanin = append(fanin, f)
	}
	return rawGate{name: name, typ: typ, fanin: fanin, line: lineNo}, nil
}

// Write renders the circuit in .bench format. Gate order follows the
// circuit's gate indices; INPUT and OUTPUT declarations come first.
func Write(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	st := c.Stat()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d D-type flipflops, %d gates\n",
		st.PIs, st.POs, st.DFFs, st.LogicGates)
	for _, pi := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[pi].Name)
	}
	for _, po := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[po].Name)
	}
	fmt.Fprintln(bw)
	for i := range c.Gates {
		g := &c.Gates[i]
		switch g.Type {
		case netlist.Input:
			continue
		case netlist.Const0, netlist.Const1:
			return fmt.Errorf("bench: constant gate %q has no .bench representation", g.Name)
		}
		tname := nameByType[g.Type]
		args := make([]string, len(g.Fanin))
		for j, f := range g.Fanin {
			args[j] = c.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, tname, strings.Join(args, ", "))
	}
	return bw.Flush()
}
