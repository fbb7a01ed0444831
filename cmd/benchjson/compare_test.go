package main

import (
	"bytes"
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"sddict/internal/core"
)

func report(benches ...Benchmark) *Report { return &Report{Benchmarks: benches} }

func bench(name string, nsPerOp float64, metrics map[string]float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1, NsPerOp: nsPerOp, Metrics: metrics}
}

func TestCompareReportsCleanRun(t *testing.T) {
	base := report(bench("ParallelBuild/s526/workers=1", 100e6,
		map[string]float64{"ind_sd": 939, "restarts": 145}))
	cur := report(bench("ParallelBuild/s526/workers=1", 180e6, // slower but under 4x
		map[string]float64{"ind_sd": 939, "restarts": 145}))

	c := compareReports(base, cur, 4.0, 0)
	if c.regressions != 0 {
		t.Errorf("clean run regressed: %+v", c.lines)
	}
	if c.compared != 1 {
		t.Errorf("compared = %d, want 1", c.compared)
	}
}

func TestCompareReportsNsRatio(t *testing.T) {
	base := report(bench("ParallelFaultSim/s298/workers=4", 10e6, nil))
	cur := report(bench("ParallelFaultSim/s298/workers=4", 50e6, nil))

	if c := compareReports(base, cur, 4.0, 0); c.regressions != 1 {
		t.Errorf("5x slowdown must regress at 4x: %+v", c.lines)
	}
	if c := compareReports(base, cur, 6.0, 0); c.regressions != 0 {
		t.Errorf("5x slowdown must pass at 6x: %+v", c.lines)
	}
	// Disabled ns gate never regresses on timing.
	if c := compareReports(base, cur, 0, 0); c.regressions != 0 {
		t.Errorf("disabled ns gate regressed: %+v", c.lines)
	}
}

func TestCompareReportsDeterministicDrift(t *testing.T) {
	base := report(bench("ParallelBuild/s526/workers=1", 100e6,
		map[string]float64{"ind_sd": 939}))
	cur := report(bench("ParallelBuild/s526/workers=1", 100e6,
		map[string]float64{"ind_sd": 941}))

	c := compareReports(base, cur, 4.0, 0)
	if c.regressions != 1 {
		t.Fatalf("deterministic metric drift must regress: %+v", c.lines)
	}
	if !strings.Contains(strings.Join(c.lines, "\n"), "ind_sd") {
		t.Errorf("drift line must name the metric: %+v", c.lines)
	}
	// An explicit tolerance admits the drift; a negative one disables
	// the gate.
	if c := compareReports(base, cur, 4.0, 1.0); c.regressions != 0 {
		t.Errorf("0.2%% drift within 1%% tolerance regressed: %+v", c.lines)
	}
	if c := compareReports(base, cur, 4.0, -1); c.regressions != 0 {
		t.Errorf("disabled metric gate regressed: %+v", c.lines)
	}
}

func TestCompareReportsMedianOfRepeats(t *testing.T) {
	base := report(bench("DistPerClass/member", 10e3, map[string]float64{"dist0": 7}))
	repeats := func(ns ...float64) *Report {
		r := report()
		for _, v := range ns {
			r.Benchmarks = append(r.Benchmarks, bench("DistPerClass/member", v, map[string]float64{"dist0": 7}))
		}
		return r
	}
	// One slow outlier among five repeats does not move the median.
	if c := compareReports(base, repeats(9e3, 200e3, 11e3, 10e3, 12e3), 4.0, 0); c.regressions != 0 || c.compared != 1 {
		t.Errorf("outlier repeat regressed: %+v", c.lines)
	}
	// A slowdown in most repeats does.
	if c := compareReports(base, repeats(50e3, 60e3, 9e3, 55e3, 70e3), 4.0, 0); c.regressions != 1 {
		t.Errorf("median 55us vs 10us must regress at 4x: %+v", c.lines)
	}
	// Even counts take the mean of the middle two: (30+50)/2 = 40us.
	if c := compareReports(base, repeats(10e3, 30e3, 50e3, 90e3), 4.0, 0); c.regressions != 0 {
		t.Errorf("median 40us must pass at 4x: %+v", c.lines)
	}
	if c := compareReports(base, repeats(10e3, 30e3, 60e3, 90e3), 4.0, 0); c.regressions != 1 {
		t.Errorf("median 45us must regress at 4x: %+v", c.lines)
	}
	// A deterministic metric that drifts in any one repeat regresses once.
	cur := repeats(10e3, 10e3, 10e3)
	cur.Benchmarks[1].Metrics = map[string]float64{"dist0": 8}
	if c := compareReports(base, cur, 4.0, 0); c.regressions != 1 {
		t.Errorf("drift in one repeat must regress once: %+v", c.lines)
	}
}

func TestCompareReportsMissingAndNew(t *testing.T) {
	base := report(
		bench("ParallelBuild/s526/workers=1", 1, map[string]float64{"ind_sd": 1}),
		bench("ParallelBuild/s1196/workers=1", 1, nil), // dropped by -short runs
	)
	cur := report(
		bench("ParallelBuild/s526/workers=1", 1, map[string]float64{"ind_sd": 1}),
		bench("ParallelBuild/s526/workers=16", 1, nil), // machine-dependent worker count
	)

	c := compareReports(base, cur, 4.0, 0)
	if c.regressions != 0 {
		t.Errorf("missing/new benchmarks are informational, got regressions: %+v", c.lines)
	}
	joined := strings.Join(c.lines, "\n")
	if !strings.Contains(joined, "missing from current run") || !strings.Contains(joined, "new (not in baseline)") {
		t.Errorf("lines = %+v", c.lines)
	}

	// A missing *metric* on a shared benchmark IS a regression: the
	// benchmark stopped reporting its deterministic output.
	cur2 := report(bench("ParallelBuild/s526/workers=1", 1, nil),
		bench("ParallelBuild/s1196/workers=1", 1, nil))
	if c := compareReports(base, cur2, 4.0, 0); c.regressions != 1 {
		t.Errorf("dropped metric must regress: %+v", c.lines)
	}
}

func TestCompareReportsEmptyIntersection(t *testing.T) {
	base := report(bench("A", 1, nil))
	cur := report(bench("B", 1, nil))
	if c := compareReports(base, cur, 4.0, 0); c.regressions == 0 {
		t.Error("empty intersection must fail: nothing was compared")
	}
}

func TestRunCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep *Report) string {
		path := filepath.Join(dir, name)
		err := core.AtomicWriteFile(path, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(rep)
		})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	basePath := write("base.json", report(bench("X", 1e6, map[string]float64{"restarts": 10})))
	goodPath := write("good.json", report(bench("X", 1.5e6, map[string]float64{"restarts": 10})))
	badPath := write("bad.json", report(bench("X", 1.5e6, map[string]float64{"restarts": 12})))

	var out bytes.Buffer
	if err := runCompare([]string{basePath, goodPath}, &out); err != nil {
		t.Errorf("clean compare failed: %v\n%s", err, out.String())
	}
	out.Reset()
	err := runCompare([]string{basePath, badPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Errorf("drifted compare must fail, got %v", err)
	}
	if !strings.Contains(out.String(), "restarts") {
		t.Errorf("table must show the drifted metric:\n%s", out.String())
	}
}
