package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sddict/internal/logic"
)

// Compiled is the deployable form of a dictionary: exactly the bits a
// tester-side diagnosis flow needs, with the response matrix left behind.
// For pass/fail and same/different dictionaries that is one signature row
// per fault (k bits, 2k with the two-baseline extension) plus the baseline
// output vectors for the tests whose baseline is not the fault-free
// response. Fault-free output vectors are stored too, because a
// same/different diagnosis needs both sides of the comparison.
type Compiled struct {
	Kind     Kind
	NumTests int
	Outputs  int
	// Rows[i] is fault i's packed signature (NumTests or 2*NumTests bits).
	Rows []logic.BitVec
	// FaultFree[j] is the fault-free output vector of test j.
	FaultFree []logic.BitVec
	// Baseline[j] is the baseline output vector of test j (equal to
	// FaultFree[j] where no special baseline was stored).
	Baseline []logic.BitVec
	// ExtraBaseline is non-nil for two-baseline dictionaries.
	ExtraBaseline []logic.BitVec
}

// Compile extracts the deployable form of d. Full dictionaries cannot be
// compiled to signature rows (they need the whole response matrix) and are
// rejected.
func (d *Dictionary) Compile() (*Compiled, error) {
	if d.Kind == Full {
		return nil, errors.New("core: a full dictionary has no compact compiled form")
	}
	m := d.M
	c := &Compiled{
		Kind:      d.Kind,
		NumTests:  m.K,
		Outputs:   m.M,
		Rows:      make([]logic.BitVec, m.N),
		FaultFree: make([]logic.BitVec, m.K),
		Baseline:  make([]logic.BitVec, m.K),
	}
	for i := 0; i < m.N; i++ {
		c.Rows[i] = d.Row(i)
	}
	for j := 0; j < m.K; j++ {
		c.FaultFree[j] = m.Vecs[j][0].Clone()
		c.Baseline[j] = d.BaselineVector(j).Clone()
	}
	if d.ExtraBaselines != nil {
		c.ExtraBaseline = make([]logic.BitVec, m.K)
		for j := 0; j < m.K; j++ {
			c.ExtraBaseline[j] = m.Vecs[j][d.ExtraBaselines[j]].Clone()
		}
	}
	return c, nil
}

// Signature reduces observed responses (one output vector per test) to the
// compiled dictionary's signature space.
func (c *Compiled) Signature(observed []logic.BitVec) (logic.BitVec, error) {
	if len(observed) != c.NumTests {
		return nil, fmt.Errorf("core: %d observed responses, dictionary has %d tests",
			len(observed), c.NumTests)
	}
	total := c.NumTests
	if c.ExtraBaseline != nil {
		total = 2 * c.NumTests
	}
	sig := logic.NewBitVec(total)
	for j := 0; j < c.NumTests; j++ {
		if !observed[j].Equal(c.Baseline[j]) {
			sig.Set(j, 1)
		}
	}
	if c.ExtraBaseline != nil {
		for j := 0; j < c.NumTests; j++ {
			if !observed[j].Equal(c.ExtraBaseline[j]) {
				sig.Set(c.NumTests+j, 1)
			}
		}
	}
	return sig, nil
}

// SignatureBits returns the width of this dictionary's signature space:
// one bit per test, doubled by the two-baseline extension.
func (c *Compiled) SignatureBits() int {
	if c.ExtraBaseline != nil {
		return 2 * c.NumTests
	}
	return c.NumTests
}

// Candidates returns the fault indices whose rows equal sig, ascending.
func (c *Compiled) Candidates(sig logic.BitVec) []int {
	var out []int
	for i, row := range c.Rows {
		if row.Equal(sig) {
			out = append(out, i)
		}
	}
	return out
}

// SizeBits returns the stored size following the paper's accounting:
// signature bits plus baseline vectors that differ from the fault-free
// response (the fault-free responses themselves are not charged).
func (c *Compiled) SizeBits() int64 {
	rowBits := int64(c.NumTests)
	if c.ExtraBaseline != nil {
		rowBits *= 2
	}
	size := rowBits * int64(len(c.Rows))
	for j := 0; j < c.NumTests; j++ {
		if !c.Baseline[j].Equal(c.FaultFree[j]) {
			size += int64(c.Outputs)
		}
		if c.ExtraBaseline != nil && !c.ExtraBaseline[j].Equal(c.FaultFree[j]) {
			size += int64(c.Outputs)
		}
	}
	return size
}

// Binary format: a small magic/version header, the dimensions, then the
// packed sections. All integers are little-endian uint32/uint64.
const (
	compiledMagic   = 0x53444443 // "SDDC"
	compiledVersion = 1
)

// WriteTo serializes the compiled dictionary.
func (c *Compiled) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v interface{}) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	hdr := []uint32{compiledMagic, compiledVersion, uint32(c.Kind),
		uint32(len(c.Rows)), uint32(c.NumTests), uint32(c.Outputs)}
	extra := uint32(0)
	if c.ExtraBaseline != nil {
		extra = 1
	}
	hdr = append(hdr, extra)
	for _, h := range hdr {
		if err := write(h); err != nil {
			return n, err
		}
	}
	writeVecs := func(vecs []logic.BitVec) error {
		for _, v := range vecs {
			if err := write([]uint64(v)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeVecs(c.Rows); err != nil {
		return n, err
	}
	if err := writeVecs(c.FaultFree); err != nil {
		return n, err
	}
	if err := writeVecs(c.Baseline); err != nil {
		return n, err
	}
	if c.ExtraBaseline != nil {
		if err := writeVecs(c.ExtraBaseline); err != nil {
			return n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, nil
}

// ReadCompiled deserializes a compiled dictionary written by WriteTo.
func ReadCompiled(r io.Reader) (*Compiled, error) {
	br := bufio.NewReader(r)
	var hdr [7]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("core: reading header: %w", err)
		}
	}
	if hdr[0] != compiledMagic {
		return nil, errors.New("core: not a compiled dictionary (bad magic)")
	}
	if hdr[1] != compiledVersion {
		return nil, fmt.Errorf("core: unsupported version %d", hdr[1])
	}
	kind := Kind(hdr[2])
	if kind != PassFail && kind != SameDiff {
		return nil, fmt.Errorf("core: invalid dictionary kind %d", hdr[2])
	}
	nFaults, k, m := int(hdr[3]), int(hdr[4]), int(hdr[5])
	hasExtra := hdr[6] == 1
	const limit = 1 << 28 // sanity bound against corrupt headers
	if nFaults < 0 || k <= 0 || m <= 0 ||
		int64(nFaults)*int64(k) > limit || int64(k)*int64(m) > limit {
		return nil, errors.New("core: implausible dimensions in header")
	}
	c := &Compiled{Kind: kind, NumTests: k, Outputs: m}
	rowBits := k
	if hasExtra {
		rowBits = 2 * k
	}
	readVecs := func(count, bits int) ([]logic.BitVec, error) {
		vecs := make([]logic.BitVec, count)
		words := logic.WordsFor(bits)
		for i := range vecs {
			v := make(logic.BitVec, words)
			if err := binary.Read(br, binary.LittleEndian, []uint64(v)); err != nil {
				return nil, err
			}
			vecs[i] = v
		}
		return vecs, nil
	}
	var err error
	if c.Rows, err = readVecs(nFaults, rowBits); err != nil {
		return nil, fmt.Errorf("core: reading rows: %w", err)
	}
	if c.FaultFree, err = readVecs(k, m); err != nil {
		return nil, fmt.Errorf("core: reading fault-free vectors: %w", err)
	}
	if c.Baseline, err = readVecs(k, m); err != nil {
		return nil, fmt.Errorf("core: reading baselines: %w", err)
	}
	if hasExtra {
		if c.ExtraBaseline, err = readVecs(k, m); err != nil {
			return nil, fmt.Errorf("core: reading extra baselines: %w", err)
		}
	}
	return c, nil
}
