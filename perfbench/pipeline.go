package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sddict/internal/dictio"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
)

// pipelineRow is one Table-6 row of the pipeline slice with the values
// every run of it must reproduce.
type pipelineRow struct {
	Circuit      string `json:"circuit"`
	Tests        string `json:"tests"`
	TestCount    int    `json:"test_count"`
	TestChecksum string `json:"test_checksum"`
	IndFull      int64  `json:"ind_full"`
	IndPF        int64  `json:"ind_pf"`
	IndSD        int64  `json:"ind_sd"`
	Restarts     int    `json:"restarts"`
	CandEvals    int64  `json:"cand_evals"`
}

// pinFile is pins.json: the slice's rows, run at Seed.
type pinFile struct {
	Seed int64         `json:"seed"`
	Rows []pipelineRow `json:"rows"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pinFile, error) {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// setupReps is how many times the pipeline's set-up (synthesis,
// full-scan conversion, fault collapse of the slice) is repeated; one
// repetition takes a few milliseconds, so the median of many is steady.
const setupReps = 300

// rowOrder is the run's row order: the benchmark seed permutes the
// slice (the circuits themselves stay at the pinned seed; see DESIGN.md).
func rowOrder(pins pinFile, seed int64) []pipelineRow {
	rng := rand.New(rand.NewSource(seed))
	out := make([]pipelineRow, len(pins.Rows))
	for i, j := range rng.Perm(len(pins.Rows)) {
		out[i] = pins.Rows[j]
	}
	return out
}

// childRow is one sdd child's measured run.
type childRow struct {
	wall, cpu time.Duration
	rssBytes  float64
	err       error // output check failure
}

var (
	testsRe    = regexp.MustCompile(`(?m)^tests: (\d+) `)
	restartsRe = regexp.MustCompile(`over (\d+) restarts`)
)

// runChild runs one row as `sdd -workers 1 -publish` and checks its
// report and artifact against the pinned values.
func runChild(ctx context.Context, b *bench, seed int64, row pipelineRow) (childRow, error) {
	pub := filepath.Join(b.run, "pipeline.sdda")
	cmd := exec.CommandContext(ctx, b.sdd, "-circuit", row.Circuit, "-tests", row.Tests,
		"-seed", strconv.FormatInt(seed, 10), "-workers", "1", "-publish", pub)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return childRow{}, fmt.Errorf("sdd %s/%s: %w", row.Circuit, row.Tests, err)
	}
	cr := childRow{wall: time.Since(start)}
	ps := cmd.ProcessState
	cr.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		cr.rssBytes = float64(ru.Maxrss) * 1024
	}
	got, err := parseReport(out.String())
	if err == nil {
		var art *dictio.Artifact
		if art, err = dictio.Load(pub); err == nil {
			got.TestChecksum = art.Header.TestChecksum
		}
	}
	if err == nil {
		err = compareRow(got, row, false)
	}
	cr.err = err
	return cr, nil
}

// parseReport reads the pinned figures off sdd's report.
func parseReport(out string) (pipelineRow, error) {
	var r pipelineRow
	m := testsRe.FindStringSubmatch(out)
	k := restartsRe.FindStringSubmatch(out)
	if m == nil || k == nil {
		return r, fmt.Errorf("unrecognised sdd report:\n%s", out)
	}
	r.TestCount, _ = strconv.Atoi(m[1])
	r.Restarts, _ = strconv.Atoi(k[1])
	found := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		ind, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "full":
			r.IndFull, found = ind, found+1
		case "pass/fail":
			r.IndPF, found = ind, found+1
		case "same/different":
			r.IndSD, found = ind, found+1
		}
	}
	if found != 3 {
		return r, fmt.Errorf("sdd report lacks the dictionary table:\n%s", out)
	}
	return r, nil
}

// compareRow checks got against the pinned row; cand_evals is compared
// only when withEvals (sdd's report does not print it).
func compareRow(got, want pipelineRow, withEvals bool) error {
	got.Circuit, got.Tests = want.Circuit, want.Tests
	if !withEvals {
		got.CandEvals = want.CandEvals
	}
	if got != want {
		return fmt.Errorf("%s/%s: got %+v, pinned %+v", want.Circuit, want.Tests, got, want)
	}
	return nil
}

// pipelineOp runs the slice once through sdd children, in order.
type pipelineOp struct {
	wall, cpu time.Duration
	rssBytes  float64
	err       error
}

func runPipelineOp(ctx context.Context, b *bench, seed int64, rows []pipelineRow) (pipelineOp, error) {
	var op pipelineOp
	start := time.Now()
	for _, row := range rows {
		cr, err := runChild(ctx, b, seed, row)
		if err != nil {
			return op, err
		}
		op.cpu += cr.cpu
		op.rssBytes = max(op.rssBytes, cr.rssBytes)
		if op.err == nil {
			op.err = cr.err
		}
	}
	op.wall = time.Since(start)
	return op, nil
}

// pipelineSetup times the slice's set-up in-process — profile
// synthesis, full-scan conversion and fault collapse, the steps every
// sdd run performs before test generation — setupReps times, and
// returns the median repetition in seconds.
func pipelineSetup(seed int64, rows []pipelineRow) (float64, error) {
	profiles := make([]gen.Profile, len(rows))
	for i, row := range rows {
		p, err := gen.Named(row.Circuit)
		if err != nil {
			return 0, err
		}
		profiles[i] = p
	}
	reps := make([]float64, setupReps)
	for i := range reps {
		// Each repetition starts from a collected heap, as a fresh sdd
		// process does, so the median does not depend on where the
		// collector's cycles happen to fall.
		runtime.GC()
		start := time.Now()
		for _, p := range profiles {
			fault.Collapse(netlist.Combinationalize(p.MustGenerate(seed + 1)))
		}
		reps[i] = time.Since(start).Seconds()
	}
	return median(reps), nil
}

// runPipeline is the end-to-end pipeline workload: a closed loop of
// slice passes, one sdd child at a time, until the window is spent.
func runPipeline(ctx context.Context, b *bench, seed int64, window time.Duration) (result, error) {
	pins, err := loadPins()
	if err != nil {
		return result{}, err
	}
	rows := rowOrder(pins, seed)
	var res result
	var walls []float64
	var cpu time.Duration
	var rss float64
	start := time.Now()
	for time.Since(start) < window {
		op, err := runPipelineOp(ctx, b, pins.Seed, rows)
		if err != nil {
			return result{}, err
		}
		res.Attempted++
		if op.err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: pipeline op %d: %v\n", res.Attempted, op.err)
		}
		walls = append(walls, ms(op.wall))
		cpu += op.cpu
		rss = max(rss, op.rssBytes)
	}
	elapsed := time.Since(start)
	// After the loop: a child's peak RSS as wait4 reports it includes this
	// process's own peak at spawn time, so this process stays small while
	// children run.
	setup, err := pipelineSetup(pins.Seed, rows)
	if err != nil {
		return result{}, err
	}
	ok := res.Attempted - res.Failed
	res.set("latency_p50_ms", median(walls), "ms")
	res.set("throughput_per_s", float64(ok*len(rows))/elapsed.Seconds(), "1/s")
	res.set("cpu_ms_per_op", ms(cpu)/float64(res.Attempted), "ms")
	res.set("peak_rss_mb", rss/(1<<20), "MB")
	res.set("setup_s", setup, "s")
	fmt.Printf("# pipeline: %d ops of %d rows (%s) at sdd seed %d; %d latency samples, slowest %.1f ms\n",
		res.Attempted, len(rows), rowNames(rows), pins.Seed, len(walls), percentile(walls, 1))
	return res, nil
}

func rowNames(rows []pipelineRow) string {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.Circuit + "/" + r.Tests
	}
	return strings.Join(names, " -> ")
}
