package sim

import (
	"context"
	"math/bits"
	"slices"

	"sddict/internal/fault"
	"sddict/internal/logic"
	"sddict/internal/netlist"
	"sddict/internal/par"
)

// Fanout-free-region (FFR) fault simulation.
//
// A gate is an FFR root when its output line has fanout other than one
// pin, is observed (a primary output or a flip-flop D line), or feeds a
// flip-flop. Every other line has exactly one sink pin, so the effect of a
// fault inside a region can leave it only through the region's root:
// wherever the effect reaches the root, the downstream response is the
// response to flipping the root. A fault's effect is therefore the effect
// of one root flip, masked by the patterns on which the fault reaches the
// root (critical path tracing, Abramovici, Menon & Miller, DAC 1983; the
// FFR reduction of HOPE, Lee & Ha, IEEE TCAD 1996). A batch's sweep runs
// one event-driven propagation per distinct root instead of one per
// fault, and the results equal Propagate's fault by fault.
//
// A branch fault on a flip-flop's D pin is seen only at that flip-flop's
// pseudo output. It gets a root key of its own past the gate indices,
// len(Gates)+slot, whose "flip" inverts that one output slot.

// ffr is the immutable region structure of a scan view, shared by a
// simulator and its forks.
type ffr struct {
	// root[g] is the root key of line g: g itself when g is a root,
	// otherwise the root its unique sink leads to.
	root []int32
	// sink[g] is the single sink gate of a non-root line; -1 at a root.
	sink []int32
	// dffSlot[g] is the pseudo-output slot of flip-flop g; -1 otherwise.
	dffSlot []int32
	// outOff/outSlot list, in ascending order, the output slots observing
	// each gate: outSlot[outOff[g]:outOff[g+1]].
	outOff  []int32
	outSlot []int32

	// Flat copies of the netlist for the flip loop: gate types and
	// levels, fanin lists fin[finOff[g]:finOff[g+1]] in pin order, and the
	// distinct combinational sinks fo[foOff[g]:foOff[g+1]] (flip-flops
	// excluded: effects do not cross them within a test).
	typ    []netlist.GateType
	lvl    []int32
	finOff []int32
	fin    []int32
	foOff  []int32
	fo     []int32
}

func newFFR(view *netlist.ScanView) *ffr {
	c := view.C
	n := len(c.Gates)
	r := &ffr{
		root:    make([]int32, n),
		sink:    make([]int32, n),
		dffSlot: make([]int32, n),
		outOff:  make([]int32, n+1),
		outSlot: make([]int32, len(view.Outputs)),
	}
	for _, g := range view.Outputs {
		r.outOff[g+1]++
	}
	for g := 0; g < n; g++ {
		r.outOff[g+1] += r.outOff[g]
		r.dffSlot[g] = -1
	}
	fill := append([]int32(nil), r.outOff[:n]...)
	for slot, g := range view.Outputs {
		r.outSlot[fill[g]] = int32(slot)
		fill[g]++
	}
	for q, ff := range c.DFFs {
		r.dffSlot[ff] = int32(len(c.POs) + q)
	}
	r.typ = make([]netlist.GateType, n)
	r.lvl = make([]int32, n)
	r.finOff = make([]int32, n+1)
	r.foOff = make([]int32, n+1)
	for g := range c.Gates {
		r.typ[g], r.lvl[g] = c.Gates[g].Type, c.Level(int32(g))
		r.fin = append(r.fin, c.Gates[g].Fanin...)
		r.finOff[g+1] = int32(len(r.fin))
		for _, s := range c.Fanout(int32(g)) {
			if c.Gates[s].Type != netlist.DFF && !slices.Contains(r.fo[r.foOff[g]:], s) {
				r.fo = append(r.fo, s)
			}
		}
		r.foOff[g+1] = int32(len(r.fo))
	}
	order := c.Order()
	for k := len(order) - 1; k >= 0; k-- {
		g := order[k]
		fo := c.Fanout(g)
		if len(fo) != 1 || r.outOff[g+1] > r.outOff[g] || c.Gates[fo[0]].Type == netlist.DFF {
			r.root[g], r.sink[g] = g, -1
			continue
		}
		// The sink is a combinational gate, so it follows g in the
		// topological order and its root is already known.
		r.root[g], r.sink[g] = r.root[fo[0]], fo[0]
	}
	return r
}

// regions builds the simulator's fault-sweep state on first use. A fork
// shares the region structure of the simulator it was forked from.
func (sm *Simulator) regions() {
	if sm.ffr == nil {
		sm.ffr = newFFR(sm.View)
	}
	if sm.sens == nil {
		n := len(sm.c.Gates)
		sm.sens, sm.sensAt = make([]logic.Word, n), make([]uint32, n)
		sm.obsMark = make([]uint64, logic.WordsFor(sm.View.NumOutputs()))
	}
}

// sinkSens returns the patterns on which flipping line g changes its sink
// s: s is evaluated with every pin that reads g inverted.
func (sm *Simulator) sinkSens(s, g int32) logic.Word {
	gate := &sm.c.Gates[s]
	in := sm.inWords[:len(gate.Fanin)]
	for i, f := range gate.Fanin {
		in[i] = sm.good[f]
		if f == g {
			in[i] = ^in[i]
		}
	}
	return EvalWords(gate.Type, in) ^ sm.good[s]
}

// pathSens returns the patterns on which flipping line g flips its root:
// the AND of the sink sensitivities along g's unique path. Results are
// memoized per line for the applied batch.
func (sm *Simulator) pathSens(g int32) logic.Word {
	path := sm.pathBuf[:0]
	cur := g
	for sm.ffr.sink[cur] >= 0 && sm.sensAt[cur] != sm.epoch {
		path = append(path, cur)
		cur = sm.ffr.sink[cur]
	}
	acc := ^logic.Word(0)
	if sm.ffr.sink[cur] >= 0 {
		acc = sm.sens[cur]
	}
	for k := len(path) - 1; k >= 0; k-- {
		line := path[k]
		acc &= sm.sinkSens(sm.ffr.sink[line], line)
		sm.sens[line], sm.sensAt[line] = acc, sm.epoch
	}
	sm.pathBuf = path
	return acc
}

// reach returns fault f's root key and the valid patterns on which the
// fault's effect reaches that root.
func (sm *Simulator) reach(f fault.Fault) (int32, logic.Word) {
	forced := logic.Word(0)
	if f.Stuck == 1 {
		forced = ^logic.Word(0)
	}
	g := f.Gate
	var act logic.Word
	switch {
	case f.IsStem():
		act = sm.good[g] ^ forced
	case sm.c.Gates[g].Type == netlist.DFF:
		slot := sm.ffr.dffSlot[g]
		return int32(len(sm.c.Gates)) + slot, (sm.good[sm.c.Gates[g].Fanin[0]] ^ forced) & sm.mask
	default:
		act = sm.evalWithForcedPin(g, f.Pin, forced) ^ sm.good[g]
	}
	act &= sm.mask
	if act != 0 {
		act &= sm.pathSens(g)
	}
	return sm.ffr.root[g], act
}

// flip propagates an inversion of root key r on the patterns in on and
// returns the observable effect. The diff list is appended to *slab.
func (sm *Simulator) flip(r int32, on logic.Word, slab *[]OutputDiff) Effect {
	lo := len(*slab)
	x := sm.ffr
	if n := int32(len(x.typ)); r >= n {
		*slab = append(*slab, OutputDiff{Slot: r - n, Bits: on})
		return Effect{Detect: on, Diffs: (*slab)[lo:len(*slab):len(*slab)]}
	}
	sm.current++
	cur := sm.current
	sm.setFaulty(r, sm.good[r]^on)
	sm.markObserved(r)
	top := sm.enqueueSinks(r, -1)
	for lvl := x.lvl[r] + 1; lvl <= top; lvl++ {
		bucket := sm.buckets[lvl]
		for i := 0; i < len(bucket); i++ {
			g := bucket[i]
			in := sm.inWords[:x.finOff[g+1]-x.finOff[g]]
			for k, f := range x.fin[x.finOff[g]:x.finOff[g+1]] {
				if sm.stamp[f] == cur {
					in[k] = sm.faulty[f]
				} else {
					in[k] = sm.good[f]
				}
			}
			if w := EvalWords(x.typ[g], in); w != sm.good[g] {
				sm.setFaulty(g, w)
				sm.markObserved(g)
				top = sm.enqueueSinks(g, top)
			}
		}
		sm.buckets[lvl] = bucket[:0]
	}
	var eff Effect
	for wi, word := range sm.obsMark {
		for word != 0 {
			slot := int32(wi<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			g := sm.View.Outputs[slot]
			if d := (sm.faulty[g] ^ sm.good[g]) & sm.mask; d != 0 {
				*slab = append(*slab, OutputDiff{Slot: slot, Bits: d})
				eff.Detect |= d
			}
		}
		sm.obsMark[wi] = 0
	}
	eff.Diffs = (*slab)[lo:len(*slab):len(*slab)]
	return eff
}

// markObserved records the output slots observing gate g for a flip's
// diff collection.
func (sm *Simulator) markObserved(g int32) {
	x := sm.ffr
	for _, slot := range x.outSlot[x.outOff[g]:x.outOff[g+1]] {
		sm.obsMark[slot>>6] |= 1 << (uint(slot) & 63)
	}
}

// enqueueSinks schedules the combinational sinks of g not yet scheduled
// in the current flip, and returns the highest level scheduled so far.
func (sm *Simulator) enqueueSinks(g, top int32) int32 {
	x := sm.ffr
	for _, s := range x.fo[x.foOff[g]:x.foOff[g+1]] {
		if sm.queued[s] == sm.current {
			continue
		}
		sm.queued[s] = sm.current
		l := x.lvl[s]
		sm.buckets[l] = append(sm.buckets[l], s)
		top = max(top, l)
	}
	return top
}

// Sweep holds one batch's fault effects in FFR form: per fault, a root
// and the patterns on which the fault reaches it; per distinct root, the
// effect of flipping it on every pattern any of its faults reaches. A
// Sweep is reused across batches; each Run overwrites the previous
// batch's effects, and slices it returned before stay valid only until
// the next Run.
type Sweep struct {
	reach  []logic.Word // per fault
	rootIx []int32      // per fault: index into roots, -1 when reach is 0
	roots  []int32      // distinct root keys reached, ascending
	union  []logic.Word // per root: the patterns its faults reach
	eff    []Effect     // per root: the effect of flipping it on union

	keyIx []int32 // per root key: index into roots, valid at keyAt == stamp
	keyAt []uint32
	stamp uint32

	forks []*Simulator // per-worker clones of the swept simulator
	slabs [][]OutputDiff
}

// Run computes the effects of every fault under s's applied batch. Reach
// masks are computed by fault range and the distinct roots are flipped in
// ascending key order by root range, both sharded over the pool's workers
// on forks of s; every value is a pure function of (batch, fault), so the
// result is the same at every worker count. The context is checked per
// fault and per root flip: on cancellation Run returns ctx.Err() and the
// sweep's contents are unspecified.
func (sw *Sweep) Run(ctx context.Context, pool *par.Pool, s *Simulator, faults []fault.Fault) error {
	nf := len(faults)
	sw.reach = growWords(sw.reach, nf)
	sw.rootIx = growI32(sw.rootIx, nf)
	w := pool.Workers()
	sims := sw.workers(s, w)

	// Reach masks, by fault range.
	if err := shard(ctx, pool, nf, len(sims), func(k, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			sw.rootIx[i], sw.reach[i] = sims[k].reach(faults[i])
		}
		return nil
	}); err != nil {
		return err
	}

	// Distinct roots in ascending key order, with their reach unions.
	keys := len(s.c.Gates) + len(s.View.Outputs)
	if len(sw.keyIx) < keys {
		sw.keyIx, sw.keyAt, sw.stamp = make([]int32, keys), make([]uint32, keys), 0
	}
	sw.stamp++
	sw.roots = sw.roots[:0]
	for i := 0; i < nf; i++ {
		if r := sw.rootIx[i]; sw.reach[i] != 0 && sw.keyAt[r] != sw.stamp {
			sw.keyAt[r] = sw.stamp
			sw.roots = append(sw.roots, r)
		}
	}
	slices.Sort(sw.roots)
	sw.union = growWords(sw.union, len(sw.roots))
	for k, r := range sw.roots {
		sw.keyIx[r] = int32(k)
		sw.union[k] = 0
	}
	for i := 0; i < nf; i++ {
		if sw.reach[i] == 0 {
			sw.rootIx[i] = -1
			continue
		}
		k := sw.keyIx[sw.rootIx[i]]
		sw.rootIx[i] = k
		sw.union[k] |= sw.reach[i]
	}

	// One flip per root, by root range.
	if cap(sw.eff) < len(sw.roots) {
		sw.eff = make([]Effect, len(sw.roots))
	}
	sw.eff = sw.eff[:len(sw.roots)]
	return shard(ctx, pool, len(sw.roots), len(sims), func(k, lo, hi int) error {
		slab := sw.slabs[k][:0]
		for j := lo; j < hi; j++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			sw.eff[j] = sims[k].flip(sw.roots[j], sw.union[j], &slab)
		}
		sw.slabs[k] = slab
		return nil
	})
}

// workers returns up to w simulators holding s's applied batch: s itself
// and w−1 forks kept across Runs.
func (sw *Sweep) workers(s *Simulator, w int) []*Simulator {
	if len(sw.forks) == 0 || sw.forks[0] != s {
		s.regions()
		sw.forks = []*Simulator{s}
	}
	for len(sw.forks) < w {
		f := s.Fork()
		f.regions()
		sw.forks = append(sw.forks, f)
	}
	for _, f := range sw.forks[1:w] {
		f.load(s)
	}
	for len(sw.slabs) < w {
		sw.slabs = append(sw.slabs, nil)
	}
	return sw.forks[:w]
}

// shard splits [0, n) into at most w contiguous ranges and runs fn(k, lo,
// hi) for range k on the pool.
func shard(ctx context.Context, pool *par.Pool, n, w int, fn func(k, lo, hi int) error) error {
	if w > n {
		w = n
	}
	if w <= 1 {
		if n == 0 {
			return nil
		}
		return fn(0, 0, n)
	}
	_, err := par.Map(ctx, pool, w, func(_ context.Context, k int) (struct{}, error) {
		return struct{}{}, fn(k, k*n/w, (k+1)*n/w)
	})
	return err
}

// Flips returns the number of root flips the last Run propagated.
func (sw *Sweep) Flips() int { return len(sw.roots) }

// Detect returns the detect word of fault i: the patterns on which some
// output differs from the good machine.
func (sw *Sweep) Detect(i int) uint64 {
	k := sw.rootIx[i]
	if k < 0 {
		return 0
	}
	return sw.eff[k].Detect & sw.reach[i]
}

// Root returns the index of fault i's root among the sweep's flipped
// roots, or -1 when the fault has no effect in this batch. Faults with
// the same root index and a common detected pattern produce the same
// output vector on that pattern.
func (sw *Sweep) Root(i int) int32 { return sw.rootIx[i] }

// RootEffect returns the effect of flipping root k; a fault's effect is
// this masked by its reach. The diff list must not be modified.
func (sw *Sweep) RootEffect(k int32) Effect { return sw.eff[k] }

func growWords(b []logic.Word, n int) []logic.Word {
	if cap(b) < n {
		return make([]logic.Word, n)
	}
	return b[:n]
}

func growI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}
