// Package sim implements bit-parallel logic and fault simulation on the
// full-scan view of a circuit: 64 test patterns are evaluated per pass.
// A fault sweep (Sweep) runs one event-driven forward propagation per
// fanout-free-region root and traces each fault to its root within the
// region (parallel-pattern simulation with FFR reduction, ffr.go);
// Propagate simulates a single fault from its site (parallel-pattern
// single-fault propagation, PPSFP) and is the per-fault reference.
package sim

import (
	"fmt"
	"math/bits"

	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/pattern"
)

// Simulator evaluates one 64-pattern batch at a time over a fixed circuit.
// It is not safe for concurrent use; Fork creates independent clones of an
// applied batch so a fault sweep can be sharded across workers.
type Simulator struct {
	View *netlist.ScanView

	c    *netlist.Circuit
	good []logic.Word // good value per gate for the current batch
	mask uint64       // valid-pattern mask of the current batch

	// Fault-sweep state, built on first use (regions): the region
	// structure, shared with forks, and a per-batch memo of pathSens,
	// valid while sensAt matches epoch, which advances with every
	// applied batch.
	ffr     *ffr
	sens    []logic.Word
	sensAt  []uint32
	epoch   uint32
	pathBuf []int32
	obsMark []uint64 // output slots a root flip reached, as a bitset

	// Faulty-machine scratch state, valid while stamp matches.
	faulty  []logic.Word
	stamp   []uint32
	queued  []uint32
	current uint32

	// Level-bucketed event queue for forward propagation.
	buckets [][]int32

	// Scratch for gathering fanin words before gate evaluation.
	inWords []logic.Word
}

// New returns a simulator over the given full-scan view.
func New(view *netlist.ScanView) *Simulator {
	c := view.C
	n := len(c.Gates)
	s := &Simulator{
		View:    view,
		c:       c,
		good:    make([]logic.Word, n),
		faulty:  make([]logic.Word, n),
		stamp:   make([]uint32, n),
		queued:  make([]uint32, n),
		buckets: make([][]int32, c.MaxLevel()+1),
	}
	maxFanin := 0
	for i := range c.Gates {
		if n := len(c.Gates[i].Fanin); n > maxFanin {
			maxFanin = n
		}
	}
	s.inWords = make([]logic.Word, maxFanin)
	return s
}

// Fork returns an independent simulator over the same scan view with the
// receiver's currently applied batch already loaded: the good values and
// valid-pattern mask are copied, the immutable circuit and view are
// shared, and all faulty-machine scratch state is fresh. The fork can
// Propagate concurrently with the receiver and with other forks — fault
// effects are pure functions of (circuit, batch, fault), so sharding a
// fault sweep across forks yields exactly the effects a single simulator
// would produce, in any interleaving.
func (s *Simulator) Fork() *Simulator {
	ns := New(s.View)
	ns.ffr = s.ffr
	ns.load(s)
	return ns
}

// load copies the applied batch of s, a simulator over the same view.
func (s *Simulator) load(from *Simulator) {
	copy(s.good, from.good)
	s.mask = from.mask
	s.epoch++
}

// EvalWords computes the output word of a gate of type t from its fanin
// words. It is exported for reuse by reference implementations and tests.
func EvalWords(t netlist.GateType, in []logic.Word) logic.Word {
	switch t {
	case netlist.Const0:
		return 0
	case netlist.Const1:
		return ^logic.Word(0)
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return ^in[0]
	case netlist.And, netlist.Nand:
		w := ^logic.Word(0)
		for _, f := range in {
			w &= f
		}
		if t == netlist.Nand {
			w = ^w
		}
		return w
	case netlist.Or, netlist.Nor:
		var w logic.Word
		for _, f := range in {
			w |= f
		}
		if t == netlist.Nor {
			w = ^w
		}
		return w
	case netlist.Xor, netlist.Xnor:
		var w logic.Word
		for _, f := range in {
			w ^= f
		}
		if t == netlist.Xnor {
			w = ^w
		}
		return w
	}
	panic(fmt.Sprintf("sim: eval of source gate type %s", t))
}

// eval computes the word value of gate g from the given per-gate value
// reader.
func (s *Simulator) eval(g int32, val func(int32) logic.Word) logic.Word {
	gate := &s.c.Gates[g]
	in := s.inWords[:len(gate.Fanin)]
	for i, f := range gate.Fanin {
		in[i] = val(f)
	}
	return EvalWords(gate.Type, in)
}

// Apply loads a packed batch and performs good simulation of all gates.
func (s *Simulator) Apply(b *pattern.Batch) {
	if len(b.Words) != s.View.NumInputs() {
		panic(fmt.Sprintf("sim: batch width %d != %d inputs", len(b.Words), s.View.NumInputs()))
	}
	s.mask = b.Mask()
	s.epoch++
	for i, g := range s.View.Inputs {
		s.good[g] = b.Words[i]
	}
	for _, g := range s.c.Order() {
		if s.c.IsSource(g) {
			switch s.c.Gates[g].Type {
			case netlist.Const0:
				s.good[g] = 0
			case netlist.Const1:
				s.good[g] = ^logic.Word(0)
			}
			continue
		}
		s.good[g] = s.eval(g, s.goodVal)
	}
}

func (s *Simulator) goodVal(g int32) logic.Word { return s.good[g] }

// GoodWord returns the good-simulation word of gate g for the current batch.
func (s *Simulator) GoodWord(g int32) logic.Word { return s.good[g] }

// Mask returns the valid-pattern mask of the current batch.
func (s *Simulator) Mask() uint64 { return s.mask }

// GoodOutputs writes the good output word of every scan-view output slot
// into dst, which must have length NumOutputs.
func (s *Simulator) GoodOutputs(dst []logic.Word) {
	for i, g := range s.View.Outputs {
		dst[i] = s.good[g]
	}
}

// OutputDiff records, for one scan-view output slot, the patterns (bit set)
// where the faulty machine differs from the good machine.
type OutputDiff struct {
	Slot int32
	Bits uint64
}

// Effect is the observable consequence of one fault under the current batch.
type Effect struct {
	// Detect has a bit set for every pattern under which at least one
	// output differs from the good machine.
	Detect uint64
	// Diffs lists the differing outputs with their per-pattern difference
	// masks. Slots appear at most once, in ascending order.
	Diffs []OutputDiff
}

// faultyVal reads the faulty-machine value of gate g (falling back to the
// good value when the fault has not reached g).
func (s *Simulator) faultyVal(g int32) logic.Word {
	if s.stamp[g] == s.current {
		return s.faulty[g]
	}
	return s.good[g]
}

func (s *Simulator) setFaulty(g int32, w logic.Word) {
	s.faulty[g] = w
	s.stamp[g] = s.current
}

func (s *Simulator) enqueueFanout(g int32) {
	for _, sink := range s.c.Fanout(g) {
		if s.c.Gates[sink].Type == netlist.DFF {
			continue // fault effects do not cross flip-flops within a test
		}
		if s.queued[sink] == s.current {
			continue
		}
		s.queued[sink] = s.current
		lvl := s.c.Level(sink)
		s.buckets[lvl] = append(s.buckets[lvl], sink)
	}
}

// Propagate simulates fault f against the current batch and returns its
// observable effect. Apply must have been called first. It is the
// per-fault reference Sweep is tested against, and the single-fault path
// of two-phase diagnosis.
func (s *Simulator) Propagate(f fault.Fault) Effect {
	s.current++
	forced := logic.Word(0)
	if f.Stuck == 1 {
		forced = ^logic.Word(0)
	}

	// dffForcedSlot handles the special case of a branch fault on a
	// flip-flop's D pin: the forced value is seen only by the flip-flop's
	// pseudo output, not by the driving gate's other fanout.
	dffForcedSlot := int32(-1)
	switch {
	case f.IsStem():
		if s.faultyDiffers(f.Gate, forced) {
			s.setFaulty(f.Gate, forced)
			s.enqueueFanout(f.Gate)
		} else {
			s.setFaulty(f.Gate, forced) // equal; still record for readers
		}
	case s.c.Gates[f.Gate].Type == netlist.DFF:
		// The observed PPO value for this flip-flop is the forced word.
		slots := s.ppoSlots(f.Gate)
		if len(slots) != 1 {
			panic("sim: flip-flop without pseudo output slot")
		}
		dffForcedSlot = slots[0]
	default:
		// Branch fault: re-evaluate the gate with the faulty pin forced.
		w := s.evalWithForcedPin(f.Gate, f.Pin, forced)
		if w != s.good[f.Gate] {
			s.setFaulty(f.Gate, w)
			s.enqueueFanout(f.Gate)
		}
	}

	// Event-driven propagation in level order.
	for lvl := range s.buckets {
		bucket := s.buckets[lvl]
		for i := 0; i < len(bucket); i++ {
			g := bucket[i]
			w := s.eval(g, s.faultyVal)
			if w != s.faultyVal(g) {
				s.setFaulty(g, w)
				s.enqueueFanout(g)
			}
		}
		s.buckets[lvl] = bucket[:0]
	}

	// Collect observable differences.
	var eff Effect
	for slot, g := range s.View.Outputs {
		fw := s.faultyVal(g)
		if dffForcedSlot == int32(slot) {
			fw = forced
		}
		if d := (fw ^ s.good[g]) & s.mask; d != 0 {
			eff.Diffs = append(eff.Diffs, OutputDiff{Slot: int32(slot), Bits: d})
			eff.Detect |= d
		}
	}
	return eff
}

// DetectBitmaps transposes the per-fault detect words of a batch into
// per-pattern fault bitmaps: out[p] is a packed bitset over the fault
// indices, with bit i set exactly when detect[i] has pattern bit p set.
// count is the number of valid patterns in the batch (out has that
// length). The transpose costs O(faults + total detections) and lets
// a consumer walk each pattern's detected faults in ascending index order
// by trailing-zero iteration, instead of re-deriving detection per
// (pattern, fault) pair. The bitmaps are per-batch scratch: response
// capture keeps only the class rows they help build.
func DetectBitmaps(detect []uint64, count int) [][]uint64 {
	words := (len(detect) + 63) / 64
	out := make([][]uint64, count)
	store := make([]uint64, count*words) // one backing array, contiguous
	for p := range out {
		out[p] = store[p*words : (p+1)*words]
	}
	mask := uint64(1)<<uint(count) - 1
	if count == 64 {
		mask = ^uint64(0)
	}
	for i := range detect {
		det := detect[i] & mask
		w, bit := i/64, uint64(1)<<(uint(i)%64)
		for det != 0 {
			p := bits.TrailingZeros64(det)
			det &= det - 1
			out[p][w] |= bit
		}
	}
	return out
}

func (s *Simulator) faultyDiffers(g int32, forced logic.Word) bool {
	return (s.good[g]^forced)&s.mask != 0
}

// ppoSlots returns the output slots observing the D line of flip-flop ff.
func (s *Simulator) ppoSlots(ff int32) []int32 {
	var slots []int32
	for slot, g := range s.View.Outputs {
		if g == s.c.Gates[ff].Fanin[0] && slot >= len(s.c.POs) {
			// Confirm this PPO slot belongs to ff (slot order matches DFF
			// declaration order).
			if s.c.DFFs[slot-len(s.c.POs)] == ff {
				slots = append(slots, int32(slot))
			}
		}
	}
	return slots
}

// evalWithForcedPin evaluates gate g with input pin `pin` overridden to the
// forced word and every other pin reading the good machine. Pins are
// identified by position: the same driver may feed several pins, and only
// the faulty branch is affected.
func (s *Simulator) evalWithForcedPin(g, pin int32, forced logic.Word) logic.Word {
	gate := &s.c.Gates[g]
	in := s.inWords[:len(gate.Fanin)]
	for i, f := range gate.Fanin {
		if int32(i) == pin {
			in[i] = forced
		} else {
			in[i] = s.good[f]
		}
	}
	return EvalWords(gate.Type, in)
}
