package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"sddict/internal/core"
	"sddict/internal/diagnose"
	"sddict/internal/dictio"
	"sddict/internal/experiment"
)

// traceSuite is the -trace 1 run. It times every layer in-process,
// through the layer's public functions, on the inputs of all three
// workloads — so each traced run prints the whole per-layer set,
// whichever workload it was asked for — and compares each with an
// untraced run of the same op to report the tracing overhead.
func traceSuite(ctx context.Context, b *bench, fx *fixtures, workload string, seed int64, window time.Duration) (result, error) {
	var res result
	p, err := tracedPipeline(ctx, b, seed)
	if err != nil {
		return res, err
	}
	res.add(p)
	for _, m := range []mix{coldMix, hotMix} {
		s, err := tracedServe(ctx, b, fx, m, seed, window)
		if err != nil {
			return res, err
		}
		res.add(s)
	}
	loads := make([]float64, 5)
	for i := range loads {
		start := time.Now()
		if _, err := dictio.Load(fx.artifact); err != nil {
			return res, err
		}
		loads[i] = ms(time.Since(start))
	}
	res.set("dictio.load_ms", median(loads), "ms")
	fmt.Printf("# traced suite for -workload %s: pipeline, serve-cold and serve-hot layers\n", workload)
	return res, nil
}

// profiled names the functions whose cumulative CPU the pipeline's
// profile attributes to a layer with no separately callable entry point.
var profiled = map[string]string{
	"atpg.detect_ms":    "sddict/internal/atpg.GenerateDetectionCtx",
	"atpg.diag_ms":      "sddict/internal/atpg.GenerateDiagnosticCtx",
	"sat.solve_ms":      "sddict/internal/sat.(*Solver).Solve",
	"podem.generate_ms": "sddict/internal/atpg.(*Engine).Generate",
	"resp.build_ms":     "sddict/internal/resp.BuildObsCtx",
}

// tracedPipeline runs the slice once through sdd children (the untraced
// op) and once in-process under a CPU profile with a timer around each
// layer call (the traced op), checking both against the pins.
func tracedPipeline(ctx context.Context, b *bench, seed int64) (result, error) {
	var res result
	pins, err := loadPins()
	if err != nil {
		return res, err
	}
	rows := rowOrder(pins, seed)
	op, err := runPipelineOp(ctx, b, pins.Seed, rows)
	if err != nil {
		return res, err
	}
	res.Attempted++
	if op.err != nil {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: untraced pipeline op: %v\n", op.err)
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return res, err
	}
	start := time.Now()
	lt, got, err := inProcessRows(ctx, b, pins.Seed, rows)
	wall := time.Since(start)
	pprof.StopCPUProfile()
	if err != nil {
		return res, err
	}
	res.Attempted++
	for i, row := range rows {
		if err := compareRow(got[i], row, true); err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced pipeline op: %v\n", err)
			break
		}
	}
	names := make([]string, 0, len(profiled))
	for _, fn := range profiled {
		names = append(names, fn)
	}
	cum, err := cumulativeCPU(prof.Bytes(), names)
	if err != nil {
		return res, err
	}
	for metricName, fn := range profiled {
		res.set(metricName, cum[fn], "ms")
	}
	var tests, restarts int
	var evals int64
	for _, r := range got {
		tests += r.TestCount
		restarts += r.Restarts
		evals += r.CandEvals
	}
	res.set("experiment.prepare_ms", ms(lt.prepare), "ms")
	res.set("core.build_ms", ms(lt.build), "ms")
	res.set("diagnose.eval_ms", ms(lt.eval), "ms")
	res.set("dictio.publish_ms", ms(lt.publish), "ms")
	res.set("atpg.tests", float64(tests), "count")
	res.set("core.restarts", float64(restarts), "count")
	res.set("core.cand_evals", float64(evals), "count")
	sum := lt.prepare + lt.build + lt.eval + lt.publish
	res.set("pipeline.trace.op_ms", ms(wall), "ms")
	res.set("pipeline.trace.overhead_ms", ms(wall-op.wall), "ms")
	res.set("pipeline.trace.layer_share", sum.Seconds()/wall.Seconds(), "ratio")
	fmt.Printf("# pipeline traced op %.1f ms, untraced (sdd children) %.1f ms; layers sum to %.1f%% of the traced op\n",
		ms(wall), ms(op.wall), 100*sum.Seconds()/wall.Seconds())
	return res, nil
}

// layerTimes are the pipeline's directly timed layers, summed over rows.
type layerTimes struct{ prepare, build, eval, publish time.Duration }

// inProcessRows runs each row as sdd does — prepare, build, evaluate
// the three dictionaries, publish — timing each call, and returns the
// figures the pins cover.
func inProcessRows(ctx context.Context, b *bench, seed int64, rows []pipelineRow) (layerTimes, []pipelineRow, error) {
	var lt layerTimes
	got := make([]pipelineRow, len(rows))
	for i, row := range rows {
		cfg := experiment.Config{Seed: seed, Workers: 1}
		tt := experiment.TestSetType(row.Tests)

		t := time.Now()
		pr, err := experiment.PrepareProfileCtx(ctx, row.Circuit, tt, cfg)
		lt.prepare += time.Since(t)
		if err != nil {
			return lt, nil, err
		}
		t = time.Now()
		r, err := experiment.BuildRowCtx(ctx, pr, tt, cfg)
		lt.build += time.Since(t)
		if err != nil {
			return lt, nil, err
		}
		t = time.Now()
		for _, d := range []*core.Dictionary{core.NewFull(pr.Matrix), core.NewPassFail(pr.Matrix), r.Dict} {
			diagnose.EvaluateResolution(d)
		}
		lt.eval += time.Since(t)
		t = time.Now()
		art, err := publish(r.Dict, pr, row.Tests, seed, filepath.Join(b.run, "traced.sdda"))
		lt.publish += time.Since(t)
		if err != nil {
			return lt, nil, err
		}
		got[i] = pipelineRow{
			TestCount: pr.Tests.Len(), TestChecksum: art.Header.TestChecksum,
			IndFull: r.IndFull, IndPF: r.IndPF, IndSD: r.IndSDFinal,
			Restarts: r.BuildStats.Restarts, CandEvals: r.BuildStats.CandidateEvals,
		}
	}
	return lt, got, nil
}

// publish is sdd -publish: compile, wrap in an artifact, save.
func publish(d *core.Dictionary, pr *experiment.Prepared, tests string, seed int64, path string) (*dictio.Artifact, error) {
	compiled, err := d.Compile()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(pr.Faults))
	for i, f := range pr.Faults {
		names[i] = f.Name(pr.Circuit)
	}
	art, err := dictio.New(compiled, dictio.Header{Circuit: pr.Circuit.Name, TestSet: tests, Seed: seed, Faults: names})
	if err != nil {
		return nil, err
	}
	return art, art.Save(path)
}

// printPins recomputes the slice's pinned values in-process and prints
// them in pins.json's format (the -print-pins re-baselining mode).
func printPins(ctx context.Context, b *bench) int {
	pins, err := loadPins()
	var got []pipelineRow
	if err == nil {
		_, got, err = inProcessRows(ctx, b, pins.Seed, pins.Rows)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for i := range got {
		got[i].Circuit, got[i].Tests = pins.Rows[i].Circuit, pins.Rows[i].Tests
	}
	pins.Rows = got
	out, _ := json.MarshalIndent(pins, "", "  ") // plain structs always encode
	fmt.Println(string(out))
	return 0
}
