package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sddict/internal/casestore"
	"sddict/internal/dictio"
	"sddict/internal/logic"
	"sddict/internal/serve"
)

// reqTimes is one replayed request's layer times in microseconds; a
// layer the request's path skipped stays negative.
type reqTimes struct {
	op, decode, signature, recall, scan, rank, record float64
	verdict                                           casestore.RecallKind // after the near guard
}

// layerSum is the time of every layer on the request's path.
func (r reqTimes) layerSum() float64 {
	sum := r.decode + r.signature + r.recall
	for _, t := range []float64{r.scan, r.rank, r.record} {
		if t > 0 {
			sum += t
		}
	}
	return sum
}

// replayRun is one replay's records plus the store's open time.
type replayRun struct {
	reqs   []reqTimes
	openMs float64
}

// replay feeds the run's request bodies, in the order the server
// received them, through the layers the server's /diagnose path calls —
// JSON decode and ParseVectors, Compiled.Signature, Store.Recall, the
// near guard, and on a miss Compiled.Candidates, Compiled.Rank and
// Store.Record on a file store — against a pristine copy of the store.
// With timed set each layer call is timed; otherwise only whole
// requests, which is the untraced op the tracing overhead is taken
// against.
func replay(b *bench, fx *fixtures, m mix, tr *traffic, order []int, timed bool) (*replayRun, error) {
	dir := filepath.Join(b.run, fmt.Sprintf("%s-replay-%t", m.prefix, timed))
	if err := copyStore(m.store(fx), dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	backend, err := casestore.OpenDir(dir, casestore.FileOptions{})
	if err != nil {
		return nil, err
	}
	store, err := casestore.Open(backend, casestore.Options{})
	if err != nil {
		backend.Close()
		return nil, err
	}
	defer store.Close()
	run := &replayRun{openMs: ms(time.Since(start)), reqs: make([]reqTimes, 0, len(order))}
	// Start both replays from a collected heap, so the untimed one's
	// garbage does not tax the timed one.
	runtime.GC()

	art, dict := fx.art, fx.art.Dict
	key := fmt.Sprintf("%08x", art.Checksum)
	// lap records the time since *from into *into and restarts the clock.
	lap := func(from *time.Time, into *float64) {
		if timed {
			now := time.Now()
			*into = us(now.Sub(*from))
			*from = now
		}
	}
	for _, i := range order {
		r := reqTimes{scan: -1, rank: -1, record: -1}
		t0 := time.Now()
		t := t0
		var req serve.DiagnoseRequest
		if err := json.NewDecoder(bytes.NewReader(tr.bodies[i])).Decode(&req); err != nil {
			return nil, err
		}
		vecs, err := dictio.ParseVectors(req.Responses, art.Header.Outputs)
		if err != nil {
			return nil, err
		}
		lap(&t, &r.decode)
		sig, err := dict.Signature(vecs)
		if err != nil {
			return nil, err
		}
		lap(&t, &r.signature)
		rc := store.Recall(key, sig, topK)
		lap(&t, &r.recall)
		r.verdict = rc.Kind
		if rc.Kind == casestore.Near {
			// The server's false-dedup guard (untimed: it is unexported,
			// so its cost lands in the wire remainder).
			if best, top := nearestRows(dict, sig); best <= 0 || !sameFaults(top, rc.Case.Candidates) {
				r.verdict = casestore.Miss
			}
			t = time.Now()
		}
		if r.verdict == casestore.Miss {
			res := serve.DiagnoseResult{Failing: sig.PopCount()}
			exact := dict.Candidates(sig)
			lap(&t, &r.scan)
			if len(exact) > 0 {
				res = recompute(art, sig)
			} else {
				for _, rk := range dict.Rank(sig, topK) {
					res.Candidates = append(res.Candidates, serve.Candidate{
						Fault: rk.Fault, Name: art.Header.Faults[rk.Fault], Distance: rk.Distance,
					})
				}
				lap(&t, &r.rank)
			}
			if _, err := store.Record(newCase(art, key, dict.SignatureBits(), sig, res)); err != nil {
				return nil, err
			}
			lap(&t, &r.record)
		}
		r.op = us(time.Since(t0))
		run.reqs = append(run.reqs, r)
	}
	return run, nil
}

// newCase is the case the server records for a recomputed diagnosis.
func newCase(art *dictio.Artifact, key string, bits int, sig logic.BitVec, res serve.DiagnoseResult) casestore.Case {
	c := casestore.Case{
		Circuit: art.Header.Circuit, TestSet: art.Header.TestSet, Checksum: key,
		TestChecksum: art.Header.TestChecksum, SigBits: bits,
		Signature: append([]uint64(nil), sig...), Exact: res.Exact, TopK: topK, Failing: res.Failing,
	}
	for _, cand := range res.Candidates {
		c.Candidates = append(c.Candidates, casestore.Candidate{Fault: cand.Fault, Name: cand.Name, Distance: cand.Distance})
	}
	return c
}

func sameFaults(rows []int, cands []casestore.Candidate) bool {
	if len(rows) != len(cands) {
		return false
	}
	for i, f := range rows {
		if cands[i].Fault != f {
			return false
		}
	}
	return true
}

// pick collects one field over the requests that took that layer (a
// negative field means the request skipped it).
func pick(reqs []reqTimes, field func(reqTimes) float64) []float64 {
	var out []float64
	for _, r := range reqs {
		if v := field(r); v >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// tracedServe runs mix m's open loop against sddserve (untraced, for
// the client latency and the server's recall counters), then replays
// the same bodies in-process twice — untimed and timed per layer — and
// reports the serve layers under the mix's metric prefix.
func tracedServe(ctx context.Context, b *bench, fx *fixtures, m mix, seed int64, window time.Duration) (result, error) {
	run, err := serveWindow(ctx, b, fx, m, seed, window, 1)
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: len(run.samples), Failed: run.failed}
	lat, late, _ := run.latencies()
	clientP50 := percentile(lat, 0.5) * 1000

	order := make([]int, len(run.samples))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool { return run.samples[order[a]].sent.Before(run.samples[order[c]].sent) })
	plain, err := replay(b, fx, m, run.traffic, order, false)
	if err != nil {
		return result{}, err
	}
	traced, err := replay(b, fx, m, run.traffic, order, true)
	if err != nil {
		return result{}, err
	}
	reqs := traced.reqs
	var hits, near, misses int
	var opSum, layerTotal float64
	sums := make([]float64, len(reqs))
	for i, r := range reqs {
		switch r.verdict {
		case casestore.Exact:
			hits++
		case casestore.Near:
			near++
		default:
			misses++
		}
		sums[i] = r.layerSum()
		opSum += r.op
		layerTotal += sums[i]
	}
	p := m.prefix + "."
	res.set(p+"serve.decode_us", median(pick(reqs, func(r reqTimes) float64 { return r.decode })), "us")
	res.set(p+"core.signature_us", median(pick(reqs, func(r reqTimes) float64 { return r.signature })), "us")
	res.set(p+"casestore.recall_us", median(pick(reqs, func(r reqTimes) float64 { return r.recall })), "us")
	res.set(p+"casestore.open_ms", traced.openMs, "ms")
	res.set(p+"serve.recall_misses", float64(run.misses), "count")
	res.set(p+"serve.wire_us", clientP50-median(sums), "us")
	res.set(p+"load.lateness_p99_ms", percentile(late, 0.99), "ms")
	res.set(p+"client.latency_p99_ms", percentile(lat, 0.99), "ms")
	op := func(r reqTimes) float64 { return r.op }
	res.set(p+"trace.overhead_us", median(pick(reqs, op))-median(pick(plain.reqs, op)), "us")
	res.set(p+"trace.layer_share", layerTotal/opSum, "ratio")
	if m.name == coldMix.name {
		res.set(p+"core.scan_us", median(pick(reqs, func(r reqTimes) float64 { return r.scan })), "us")
		res.set(p+"core.rank_us", median(pick(reqs, func(r reqTimes) float64 { return r.rank })), "us")
		records := pick(reqs, func(r reqTimes) float64 { return r.record })
		res.set(p+"casestore.record_us", median(records), "us")
		res.set(p+"casestore.record_max_ms", percentile(records, 1)/1000, "ms")
	} else {
		total := run.hits + run.near + run.misses
		res.set(p+"serve.recall_hit_ratio", float64(run.hits+run.near)/float64(max(total, 1)), "ratio")
		scans := pick(reqs, func(r reqTimes) float64 {
			if r.verdict == casestore.Exact {
				return -1
			}
			return r.recall
		})
		res.set(p+"casestore.recall_scan_us", median(scans), "us")
	}
	fmt.Printf("# %s traced: client p50 %.1f us over %d requests; replay verdicts hits %d near %d misses %d (server: %d/%d/%d); layers %.1f%% of the replayed op\n",
		m.name, clientP50, len(lat), hits, near, misses, run.hits, run.near, run.misses, 100*layerTotal/opSum)
	return res, nil
}
