// Command perfbench is the repository benchmark. It drives the real sdd
// and sddserve binaries through three workloads and prints one JSON
// result line:
//
//	pipeline    closed loop of sdd runs over three Table-6 rows
//	serve-cold  open loop of noisy observations against sddserve (the
//	            rank and case-store write path)
//	serve-hot   open loop of repeated and near-repeated observations
//	            against sddserve with a large prior store (the recall path)
//
// With -trace 1 it instead runs the traced suite (trace.go), which times
// each layer in-process through its public functions and prints the
// per-layer metrics for all three workloads' inputs.
//
// Run it through run.sh from the repository root, which builds the
// binaries into .bench_build/bin first:
//
//	bash perfbench/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
//
// DESIGN.md next to this file records why each workload exists, which
// layers it stresses and which it bypasses.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric.
func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// add folds another section's op counts and metrics into r.
func (r *result) add(o result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for k, v := range o.Metrics {
		r.set(k, v.Value, v.Unit)
	}
}

// bench holds the checkout's paths.
type bench struct {
	build    string // .bench_build: binaries, fixtures, per-run scratch
	sdd      string
	sddserve string
	run      string // per-run scratch directory, emptied at start
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "pipeline, serve-cold or serve-hot")
		seed     = flag.Int64("seed", 1, "workload seed: derives every input of the run")
		seconds  = flag.Int("seconds", 20, "measured window in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer suite instead of the end-to-end run")
		pins     = flag.Bool("print-pins", false, "compute the pipeline pins in-process and print them as JSON (re-baselining)")
		build    = flag.Bool("build-fixtures", false, "build the serve fixtures and exit (run by the benchmark itself when they are missing)")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	switch *workload {
	case "pipeline", "serve-cold", "serve-hot":
	default:
		if !*pins && !*build {
			fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want pipeline, serve-cold or serve-hot)\n", *workload)
			return 2
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b, err := newBench()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	switch {
	case *pins:
		return printPins(ctx, b)
	case *build:
		if err := buildFixtures(ctx, b); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := runWorkload(ctx, b, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.Correct = res.Failed == 0
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("# error_rate %.6g (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// newBench locates the checkout: the working directory, as run.sh
// leaves it.
func newBench() (*bench, error) {
	abs, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	b := &bench{build: filepath.Join(abs, ".bench_build")}
	b.sdd = filepath.Join(b.build, "bin", "sdd")
	b.sddserve = filepath.Join(b.build, "bin", "sddserve")
	for _, p := range []string{b.sdd, b.sddserve} {
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("missing program binary (run through perfbench/run.sh): %w", err)
		}
	}
	b.run = filepath.Join(b.build, "run")
	if err := os.RemoveAll(b.run); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(b.run, 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

func runWorkload(ctx context.Context, b *bench, workload string, seed int64, window time.Duration, traced bool) (result, error) {
	fx, err := ensureFixtures(ctx, b)
	if err != nil {
		return result{}, fmt.Errorf("fixtures: %w", err)
	}
	if traced {
		return traceSuite(ctx, b, fx, workload, seed, window)
	}
	switch workload {
	case "pipeline":
		return runPipeline(ctx, b, seed, window)
	case "serve-cold":
		return runServe(ctx, b, fx, coldMix, seed, window)
	default:
		return runServe(ctx, b, fx, hotMix, seed, window)
	}
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which it sorts in place: the smallest sample with at least p of the
// samples at or below it. For fewer than 1/(1-p) samples that is the
// maximum.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// median is the middle sample (mean of the two middle ones for an even
// count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
