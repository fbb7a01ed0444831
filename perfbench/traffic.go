package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/logic"
	"sddict/internal/serve"
)

const (
	// topK is the nearest-match depth every request asks for.
	topK = 5
	// offeredRate is the open loop's fixed request rate: half of the
	// ~200/s one sddserve sustains on the 2-CPU reference machine.
	offeredRate = 100
	// conns is the number of keep-alive connections (and sender
	// goroutines) the open loop uses: nproc on the reference machine.
	conns = 2
	// hotSet is the number of faults serve-hot traffic is drawn from.
	hotSet = 64
)

// obsKind is how an observation relates to its planted fault.
type obsKind int

const (
	exactObs obsKind = iota // the fault's signature, unchanged
	nearObs                 // one test verdict flipped
	noisyObs                // three test verdicts flipped
)

// observation is one synthesized /diagnose observation.
type observation struct {
	kind  obsKind
	fault int
	sig   logic.BitVec // the signature the responses reduce to
}

// mix is one serve workload's traffic recipe.
type mix struct {
	name   string // workload name
	prefix string // per-layer metric prefix
	salt   int64  // separates the mixes' random streams
	store  func(*fixtures) string
	draw   func(rng *rand.Rand, dict *core.Compiled, n int) []observation
}

var coldMix = mix{
	name: "serve-cold", prefix: "cold", salt: 0x0c01d,
	store: func(fx *fixtures) string { return fx.coldDir },
	draw: func(rng *rand.Rand, dict *core.Compiled, n int) []observation {
		out := make([]observation, n)
		for i := range out {
			out[i] = noisyObservation(rng, dict, rng.Intn(len(dict.Rows)), 3)
		}
		return out
	},
}

var hotMix = mix{
	name: "serve-hot", prefix: "hot", salt: 0x0407,
	store: func(fx *fixtures) string { return fx.hotDir },
	draw: func(rng *rand.Rand, dict *core.Compiled, n int) []observation {
		hot := rng.Perm(len(dict.Rows))[:hotSet]
		out := make([]observation, n)
		for i := range out {
			f := hot[rng.Intn(hotSet)]
			if rng.Intn(4) == 0 {
				out[i] = noisyObservation(rng, dict, f, 1)
				continue
			}
			out[i] = observation{kind: exactObs, fault: f, sig: dict.Rows[f].Clone()}
		}
		return out
	},
}

// noisyObservation flips the verdicts of `flips` distinct tests in the
// fault's signature, standing in for a defect the fault model misses.
func noisyObservation(rng *rand.Rand, dict *core.Compiled, fault, flips int) observation {
	sig := dict.Rows[fault].Clone()
	seen := make(map[int]bool, flips)
	for len(seen) < flips {
		j := rng.Intn(dict.NumTests)
		if !seen[j] {
			seen[j] = true
			sig.Set(j, 1-sig.Get(j))
		}
	}
	kind := noisyObs
	if flips == 1 {
		kind = nearObs
	}
	return observation{kind: kind, fault: fault, sig: sig}
}

// responses fabricates per-test output vectors that reduce to sig: the
// test's baseline where sig says "same", the baseline with output 0
// flipped where it says "different" (sddload's synthesis).
func responses(dict *core.Compiled, sig logic.BitVec) []string {
	out := make([]string, dict.NumTests)
	for j := range out {
		v := dict.Baseline[j]
		if sig.Get(j) == 1 {
			v = v.Clone()
			v.Set(0, 1-v.Get(0))
		}
		out[j] = v.String(dict.Outputs)
	}
	return out
}

// traffic is one run's pre-encoded request stream.
type traffic struct {
	obs    []observation
	bodies [][]byte
}

// makeTraffic derives n observations for mix m from seed and encodes
// their request bodies, all before any timed window.
func makeTraffic(fx *fixtures, m mix, seed int64, n int) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed ^ m.salt))
	t := &traffic{obs: m.draw(rng, fx.art.Dict, n), bodies: make([][]byte, n)}
	for i, o := range t.obs {
		body, err := json.Marshal(serve.DiagnoseRequest{
			Dictionary: fx.artifact, Responses: responses(fx.art.Dict, o.sig), TopK: topK,
		})
		if err != nil {
			return nil, err
		}
		t.bodies[i] = body
	}
	return t, nil
}

// recompute is the service's recompute path for sig: the exact
// candidate set if any row matches, else the topK nearest rows.
func recompute(art *dictio.Artifact, sig logic.BitVec) serve.DiagnoseResult {
	dict := art.Dict
	res := serve.DiagnoseResult{Failing: sig.PopCount()}
	if exact := dict.Candidates(sig); len(exact) > 0 {
		res.Exact = true
		for _, f := range exact {
			res.Candidates = append(res.Candidates, serve.Candidate{Fault: f, Name: art.Header.Faults[f]})
		}
		return res
	}
	for _, rk := range dict.Rank(sig, topK) {
		res.Candidates = append(res.Candidates, serve.Candidate{
			Fault: rk.Fault, Name: art.Header.Faults[rk.Fault], Distance: rk.Distance,
		})
	}
	return res
}

// nearestRows returns the minimum Hamming distance from sig to any row
// and the rows at that distance, in row order.
func nearestRows(dict *core.Compiled, sig logic.BitVec) (int, []int) {
	best := -1
	var top []int
	for i, row := range dict.Rows {
		d := row.Hamming(sig)
		if best < 0 || d < best {
			best, top = d, top[:0]
		}
		if d == best {
			top = append(top, i)
		}
	}
	return best, top
}

// checkResponse verifies one /diagnose reply against an in-process
// recompute. A reply with a recall block is a near recall: its
// candidates must be the dictionary's minimum-distance row set for the
// observed signature. Any other reply — fresh or an exact recall — must
// be byte-identical to the recompute, and an unmodified fault signature
// must list its planted fault.
func checkResponse(fx *fixtures, o observation, body []byte) error {
	var got serve.DiagnoseResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	if len(got.Results) != 1 {
		return fmt.Errorf("%d results for one observation", len(got.Results))
	}
	res := got.Results[0]
	if rc := res.Recall; rc != nil {
		if o.kind == exactObs {
			return fmt.Errorf("exact observation of fault %d served as a near recall", o.fault)
		}
		best, top := nearestRows(fx.art.Dict, o.sig)
		switch {
		case rc.Kind != "near" || rc.Distance < 1 || rc.Distance > 2 || rc.Case < 1:
			return fmt.Errorf("malformed recall block %+v", *rc)
		case rc.Confidence != 1-float64(rc.Distance)/3:
			return fmt.Errorf("recall confidence %v at distance %d", rc.Confidence, rc.Distance)
		case !res.Exact || res.Failing != o.sig.PopCount() || best <= 0 || len(res.Candidates) != len(top):
			return fmt.Errorf("near recall does not match the minimum-distance rows %v", top)
		}
		for i, f := range top {
			if c := res.Candidates[i]; c.Fault != f || c.Name != fx.art.Header.Faults[f] {
				return fmt.Errorf("near recall candidate %d is %+v, want fault %d", i, c, f)
			}
		}
		return nil
	}
	want := serve.DiagnoseResponse{
		Dictionary: fx.artifact,
		Checksum:   fmt.Sprintf("%08x", fx.art.Checksum),
		Results:    []serve.DiagnoseResult{recompute(fx.art, o.sig)},
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(want); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), body) {
		return fmt.Errorf("reply differs from the recompute:\n got %s\nwant %s", body, buf.Bytes())
	}
	if o.kind == exactObs && !listsFault(want.Results[0], o.fault) {
		return fmt.Errorf("planted fault %d missing from the exact candidates", o.fault)
	}
	return nil
}

func listsFault(r serve.DiagnoseResult, fault int) bool {
	if !r.Exact {
		return false
	}
	for _, c := range r.Candidates {
		if c.Fault == fault {
			return true
		}
	}
	return false
}
