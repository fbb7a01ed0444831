package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"sddict/internal/cli"
)

// runCompare diffs a current benchmark report against the checked-in
// baseline. The two gates are deliberately different:
//
//   - ns/op is machine-dependent — the baseline was likely recorded on
//     different hardware — so it is a smoke gate with a generous default
//     ratio, catching only order-of-magnitude wall-clock regressions.
//   - The custom metrics (cand_evals, ind_sd, restarts, ...) are
//     deterministic outputs of the seeded search: any drift at all means
//     the algorithm changed, independent of the machine, so the default
//     tolerance is exact.
//
// Benchmarks present in only one report are warnings (the bench suite
// grows; a shrunk current set is suspicious but informational), except
// that an empty intersection is an error — then nothing was compared.
func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson compare", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	nsRatio := fs.Float64("ns-ratio", 4.0,
		"allowed ns/op growth factor vs baseline before the compare fails (<=0 = never)")
	metricPct := fs.Float64("metrics", 0,
		"allowed drift of deterministic custom metrics in percent, either direction (negative = never)")
	if err := fs.Parse(args); err != nil {
		return cli.Usagef("%v", err)
	}
	if fs.NArg() != 2 {
		return cli.Usagef("usage: benchjson compare [-ns-ratio r] [-metrics pct] baseline.json current.json")
	}

	base, err := loadReport(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := loadReport(fs.Arg(1))
	if err != nil {
		return err
	}

	c := compareReports(base, cur, *nsRatio, *metricPct)
	if err := c.writeText(stdout); err != nil {
		return err
	}
	if c.regressions > 0 {
		return fmt.Errorf("%d benchmark regression(s) against %s", c.regressions, fs.Arg(0))
	}
	return nil
}

type benchComparison struct {
	lines       []string
	regressions int
	compared    int
}

func (c *benchComparison) addf(regression bool, format string, args ...any) {
	mark := "  "
	if regression {
		mark = "! "
		c.regressions++
	}
	c.lines = append(c.lines, mark+fmt.Sprintf(format, args...))
}

func (c *benchComparison) writeText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "bench comparison: %d benchmarks compared, %d regressions\n",
		c.compared, c.regressions); err != nil {
		return err
	}
	for _, line := range c.lines {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// compareReports produces the comparison; pure so tests drive it
// directly. Benchmark identity is the name (procs vary with the CI
// machine's GOMAXPROCS and are not part of identity). A name repeated in
// a report (go test -count=N) is gated on the median of its ns/op, so one
// noisy repeat neither fails nor passes the gate alone; every repeat's
// deterministic metrics are checked against the baseline's first run.
func compareReports(base, cur *Report, nsRatio, metricPct float64) *benchComparison {
	c := &benchComparison{}
	baseNames, baseRuns := groupByName(base)
	curNames, curRuns := groupByName(cur)

	for _, name := range baseNames {
		cruns, ok := curRuns[name]
		if !ok {
			c.addf(false, "%-40s missing from current run", name)
			continue
		}
		c.compared++

		bns, cns := medianNs(baseRuns[name]), medianNs(cruns)
		if nsRatio > 0 && bns > 0 && cns > bns*nsRatio {
			c.addf(true, "%-40s ns/op %.0f -> %.0f (median of %d; %.1fx > %.1fx allowed)",
				name, bns, cns, len(cruns), cns/bns, nsRatio)
		}

		bb := baseRuns[name][0]
		for _, unit := range sortedMetricKeys(bb.Metrics) {
			bv := bb.Metrics[unit]
			for _, cb := range cruns {
				cv, ok := cb.Metrics[unit]
				if !ok {
					c.addf(true, "%-40s metric %s missing from current run", name, unit)
					break
				}
				if metricPct < 0 || bv == cv {
					continue
				}
				driftPct := math.Inf(1)
				if bv != 0 {
					driftPct = math.Abs(cv-bv) / math.Abs(bv) * 100
				}
				if driftPct > metricPct {
					c.addf(true, "%-40s %s %.6g -> %.6g (deterministic metric drifted %.2f%%)",
						name, unit, bv, cv, driftPct)
					break
				}
			}
		}
	}

	for _, name := range curNames {
		if _, ok := baseRuns[name]; !ok {
			c.addf(false, "%-40s new (not in baseline)", name)
		}
	}
	if c.compared == 0 {
		c.addf(true, "no benchmark names in common between baseline and current")
	}
	return c
}

// groupByName collects a report's runs per benchmark name, with the names
// in first-appearance order.
func groupByName(rep *Report) ([]string, map[string][]Benchmark) {
	var names []string
	runs := map[string][]Benchmark{}
	for _, b := range rep.Benchmarks {
		if _, ok := runs[b.Name]; !ok {
			names = append(names, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	return names, runs
}

// medianNs is the median ns/op of one name's runs (the mean of the middle
// two for an even count).
func medianNs(runs []Benchmark) float64 {
	ns := make([]float64, len(runs))
	for i, b := range runs {
		ns[i] = b.NsPerOp
	}
	sort.Float64s(ns)
	n := len(ns)
	if n%2 == 1 {
		return ns[n/2]
	}
	return (ns[n/2-1] + ns[n/2]) / 2
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parsing bench report %s: %w", path, err)
	}
	return &rep, nil
}

func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
