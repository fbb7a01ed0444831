package atpg

import (
	"hash/crc32"
	"math/rand"
	"testing"

	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
)

// generateCRC runs one engine over every collapsed fault of c, in
// collapse order, and folds each (status, cube) outcome into a CRC. The
// engine is reused across faults, so state leaking from one Generate into
// the next shows up as a different sum.
func generateCRC(c *netlist.Circuit, r *rand.Rand) uint32 {
	e := NewEngine(c)
	if r != nil {
		e.Randomize(r)
	}
	h := crc32.NewIEEE()
	for _, f := range fault.Collapse(c).Faults {
		cube, status := e.Generate(f)
		h.Write([]byte{byte(status)})
		h.Write([]byte(cube.Key()))
		h.Write([]byte{'\n'})
	}
	return h.Sum32()
}

// distinguishCRC folds the miter-PODEM outcome of a fixed sample of fault
// pairs of c into a CRC. Each pair runs on a fresh miter engine, whose
// fault-free state carries the miter's constant lines.
func distinguishCRC(t *testing.T, c *netlist.Circuit) uint32 {
	faults := fault.Collapse(c).Faults
	h := crc32.NewIEEE()
	for i := 0; i < len(faults); i += 5 {
		for j := i + 1; j < len(faults); j += 11 {
			cube, status, err := Distinguish(c, faults[i], faults[j], 40)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte{byte(status)})
			h.Write([]byte(cube.Key()))
			h.Write([]byte{'\n'})
		}
	}
	return h.Sum32()
}

// TestGenerateGolden pins every PODEM cube and status over the collapsed
// faults of s208 and s298, deterministic and randomized. The sums were
// recorded on the full-recompute implication engine; any change to how
// values are implied must reproduce them exactly, since the test sets,
// dictionaries and published artifacts all derive from these cubes.
func TestGenerateGolden(t *testing.T) {
	cases := []struct {
		circuit    string
		randomized bool
		want       uint32
	}{
		{"s208", false, 0xf63aeb02},
		{"s208", true, 0x09fe9373},
		{"s298", false, 0xb53d0729},
		{"s298", true, 0xba856618},
	}
	for _, tc := range cases {
		c := netlist.Combinationalize(gen.Profiles[tc.circuit].MustGenerate(2))
		var r *rand.Rand
		if tc.randomized {
			r = rand.New(rand.NewSource(1))
		}
		if got := generateCRC(c, r); got != tc.want {
			t.Errorf("%s randomized=%v: cube CRC %08x, want %08x", tc.circuit, tc.randomized, got, tc.want)
		}
	}
}

// TestDistinguishGolden pins miter-PODEM cubes and statuses over a fixed
// sample of s208 fault pairs, recorded like TestGenerateGolden.
func TestDistinguishGolden(t *testing.T) {
	c := netlist.Combinationalize(gen.Profiles["s208"].MustGenerate(2))
	if got, want := distinguishCRC(t, c), uint32(0xee1a96d9); got != want {
		t.Errorf("s208 pair sample: cube CRC %08x, want %08x", got, want)
	}
}
