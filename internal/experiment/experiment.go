// Package experiment orchestrates the paper's evaluation pipeline end to
// end: synthesize (or load) a circuit, collapse its stuck-at faults,
// generate a diagnostic or 10-detection test set, fault-simulate the full
// response matrix, and build the full, pass/fail and same/different
// dictionaries. It produces the rows of the paper's Table 6 and the
// ablation data indexed in DESIGN.md.
//
// Every stage runs under a context. The front half (test generation and
// response simulation) cannot produce a usable partial result, so
// cancellation there surfaces as an error; the back half (dictionary
// construction) degrades gracefully into a best-so-far Row marked
// RowInterrupted. Panics anywhere in the pipeline are recovered at the
// package boundary into a *StageError carrying the stage, circuit and
// stack, so one bad circuit cannot take down a whole Table-6 sweep.
package experiment

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"sddict/internal/atpg"
	"sddict/internal/core"
	"sddict/internal/fault"
	"sddict/internal/gen"
	"sddict/internal/netlist"
	"sddict/internal/obs"
	"sddict/internal/pattern"
	"sddict/internal/resp"
)

// TestSetType selects between the paper's two test-set flavours.
type TestSetType string

// Test-set flavours used in Table 6.
const (
	Diagnostic TestSetType = "diag"
	TenDetect  TestSetType = "10det"
)

// Pipeline stage names used in StageError.
const (
	StageSynthesize = "synthesize"
	StagePrepare    = "prepare"
	StageDictionary = "dictionary"
)

// StageError wraps a pipeline failure (including a recovered panic) with
// the stage and circuit it occurred in, so a sweep over many circuits can
// report and skip the failing one.
type StageError struct {
	Stage   string
	Circuit string
	Err     error
	// Stack is the goroutine stack at the point of a recovered panic; nil
	// for ordinary errors.
	Stack []byte
}

func (e *StageError) Error() string {
	if len(e.Stack) > 0 {
		return fmt.Sprintf("experiment: %s: stage %s: panic: %v", e.Circuit, e.Stage, e.Err)
	}
	return fmt.Sprintf("experiment: %s: stage %s: %v", e.Circuit, e.Stage, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// circuitName tolerates a nil circuit so recoverStage's arguments can
// never themselves panic.
func circuitName(c *netlist.Circuit) string {
	if c == nil {
		return ""
	}
	return c.Name
}

// recoverStage converts an in-flight panic into a *StageError stored in
// *errp. Deferred at every exported pipeline entry point.
func recoverStage(stage, circuit string, errp *error) {
	if r := recover(); r != nil {
		err, ok := r.(error)
		if !ok {
			err = fmt.Errorf("%v", r)
		}
		*errp = &StageError{Stage: stage, Circuit: circuit, Err: err, Stack: debug.Stack()}
	}
}

// RowStatus describes how completely a Row was computed.
type RowStatus string

// Row statuses.
const (
	// RowComplete marks a row whose dictionary construction ran to its
	// normal stopping condition.
	RowComplete RowStatus = "complete"
	// RowInterrupted marks a row built from a cancelled or expired
	// context: the dictionary is the best found so far (never worse than
	// pass/fail when fault-free seeding is on) but the search was cut
	// short.
	RowInterrupted RowStatus = "interrupted"
)

// Config bundles the per-row knobs. Test generation and the dictionary
// search run with the same settings on every circuit (atpg's defaults and
// core.DefaultOptions), as the paper runs Procedure 1 with one LOWER and
// one CALLS1 throughout.
type Config struct {
	Seed int64
	// Workers bounds the parallelism inside one row: the response-matrix
	// fault sweeps (diagnostic test generation's included) and the
	// Procedure 1 restart search all fan out across this many workers
	// (0 = one per available CPU, 1 = sequential). Every setting
	// produces byte-identical rows (DESIGN.md §9).
	Workers int

	// CheckpointPath, when non-empty, makes dictionary construction
	// persist its restart state to this file so a killed run can resume.
	// If the file already exists and matches the matrix and options, the
	// search resumes from it; the file is rewritten after every completed
	// restart and removed on clean completion.
	CheckpointPath string

	// Obs observes the pipeline: response-matrix batches and dictionary
	// construction record into it, and build events land on its trace.
	// Measurement only — rows are byte-identical with Obs set or nil
	// (DESIGN.md §10). In a sweep, RunSweepObsCtx installs a per-row
	// scoped observer here automatically.
	Obs *obs.Observer
}

// Row is one line of Table 6 plus the extra diagnostics this implementation
// records.
type Row struct {
	Circuit string
	TType   TestSetType
	Tests   int

	SizeFull int64 // bits
	SizePF   int64
	SizeSD   int64 // nominal k·(n+m)

	IndFull   int64 // indistinguished fault pairs, full dictionary
	IndPF     int64 // pass/fail dictionary
	IndSDRand int64 // same/different after Procedure 1 restarts
	IndSDRepl int64 // same/different after Procedure 2 (== rand if no gain)
	Proc2Gain bool

	// Extras beyond the paper's columns.
	Faults          int
	Outputs         int
	IndSDFinal      int64 // with fault-free seeding (never worse than p/f)
	StoredBaselines int   // baselines kept after storage minimization
	SizeSDMinimized int64 // k·n + stored·m
	BuildStats      core.BuildStats
	Elapsed         time.Duration
	// Status reports whether the dictionary search ran to completion or
	// was interrupted (see RowStatus).
	Status RowStatus
	// Dict is the constructed same/different dictionary.
	Dict *core.Dictionary
}

// Prepared holds the reusable middle state of a pipeline run, so callers
// (benchmarks, ablations) can rebuild dictionaries without regenerating
// tests.
type Prepared struct {
	Circuit *netlist.Circuit // combinational full-scan form
	Faults  []fault.Fault
	Tests   *pattern.Set
	Matrix  *resp.Matrix
	GenInfo string
}

// PrepareProfileCtx synthesizes the named circuit profile and runs
// PrepareCtx on it.
func PrepareProfileCtx(ctx context.Context, name string, tt TestSetType, cfg Config) (pr *Prepared, err error) {
	defer recoverStage(StageSynthesize, name, &err)
	p, err := gen.Named(name)
	if err != nil {
		return nil, err
	}
	seq := p.MustGenerate(cfg.Seed + 1)
	return PrepareCtx(ctx, seq, tt, cfg)
}

// PrepareCtx runs the front half of the pipeline on an arbitrary (possibly
// sequential) circuit: full-scan conversion, fault collapsing, test
// generation and full-response fault simulation. The front half has no
// usable partial result — a truncated test set or response matrix would
// silently distort every dictionary derived from it — so cancellation
// here returns an error (wrapping ctx.Err()) rather than degraded state.
func PrepareCtx(ctx context.Context, c *netlist.Circuit, tt TestSetType, cfg Config) (pr *Prepared, err error) {
	defer recoverStage(StagePrepare, circuitName(c), &err)
	comb := netlist.Combinationalize(c)
	col := fault.Collapse(comb)
	var tests *pattern.Set
	var baseM *resp.Matrix // responses of a prefix of tests, when known
	var info string
	switch tt {
	case TenDetect:
		dcfg := atpg.DefaultConfig(10)
		dcfg.Seed = cfg.Seed + 2
		set, st := atpg.GenerateDetectionCtx(ctx, comb, col.Faults, dcfg)
		tests = set
		recordATPG(cfg.Obs, st, atpg.DiagStats{})
		info = fmt.Sprintf("10det: %d random + %d podem tests, coverage %.1f%%, %d untestable",
			st.RandomTests, st.PodemTests, 100*st.Coverage(), st.Untestable)
	case Diagnostic:
		dcfg := atpg.DefaultConfig(1)
		dcfg.Seed = cfg.Seed + 2
		dcfg.Compact = true
		base, st := atpg.GenerateDetectionCtx(ctx, comb, col.Faults, dcfg)
		gcfg := atpg.DefaultDiagConfig()
		if comb.NumLogicGates() > 3000 {
			// s9234/diag needs the longer random patience: at the
			// default it keeps one random test fewer and its full floor
			// rises by one pair.
			gcfg.UselessBatchLimit = 30
		}
		gcfg.Seed = cfg.Seed + 3
		gcfg.Workers = cfg.Workers
		set, m, dst := atpg.GenerateDiagnosticCtx(ctx, comb, col.Faults, base, st.Verdicts, gcfg)
		tests, baseM = set, m
		recordATPG(cfg.Obs, st, dst)
		info = fmt.Sprintf("diag: %d detection + %d random + %d miter tests, %d equivalent pairs, %d aborted, coverage %.1f%%",
			dst.BaseTests, dst.RandomTests, dst.AddedTests, dst.Equivalent, dst.Aborted, 100*st.Coverage())
	default:
		return nil, fmt.Errorf("experiment: unknown test-set type %q", tt)
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, &StageError{Stage: StagePrepare, Circuit: c.Name,
			Err: fmt.Errorf("test generation interrupted: %w", cerr)}
	}
	if tests.Len() == 0 {
		return nil, fmt.Errorf("experiment: empty test set for %s/%s", c.Name, tt)
	}

	// Diagnostic generation already captured its base tests; a test's
	// class row depends on that test alone, so only the appended tests
	// are simulated and their rows appended.
	todo := tests
	if baseM != nil {
		todo = pattern.NewSet(tests.Width)
		todo.Vecs = tests.Vecs[baseM.K:]
	}
	m, merr := resp.BuildObsCtx(ctx, cfg.Workers, netlist.NewScanView(comb), col.Faults, todo, cfg.Obs)
	if merr != nil {
		return nil, &StageError{Stage: StagePrepare, Circuit: c.Name,
			Err: fmt.Errorf("response matrix: %w", merr)}
	}
	if baseM != nil {
		m = baseM.Append(m)
	}
	return &Prepared{Circuit: comb, Faults: col.Faults, Tests: tests, Matrix: m, GenInfo: info}, nil
}

// recordATPG adds a row's test-generation counters to ob: PODEM aborts,
// and SAT calls, carried verdicts (PODEM's among them) and conflicts over
// detection and diagnostic generation together. Each is a deterministic
// outcome count, so the counters are identical at every worker count.
func recordATPG(ob *obs.Observer, st atpg.GenStats, dst atpg.DiagStats) {
	m := ob.M()
	m.Add(obs.ATPGPodemAborts, int64(st.PodemAborts))
	m.Add(obs.ATPGSATCalls, int64(st.SATCalls+dst.SATCalls))
	m.Add(obs.ATPGSATReused, int64(dst.SATReused))
	m.Add(obs.ATPGSATConflicts, st.SATConflicts+dst.SATConflicts)
	m.Add(obs.ATPGPodemProofs, int64(dst.PodemProofs))
}

// BuildRowCtx runs the back half of the pipeline (dictionary
// construction) on prepared state. Dictionary construction is an anytime
// search, so cancellation degrades gracefully: the returned Row
// holds the best dictionary found so far and Status RowInterrupted. A
// non-nil error means no row could be built (invalid options, recovered
// panic) — except for checkpoint-save failures, where the returned Row is
// still valid and the error reports why resume state could not be
// persisted.
func BuildRowCtx(ctx context.Context, pr *Prepared, tt TestSetType, cfg Config) (row Row, err error) {
	name := ""
	if pr != nil {
		name = circuitName(pr.Circuit)
	}
	defer recoverStage(StageDictionary, name, &err)
	start := time.Now()
	opts := core.DefaultOptions
	opts.Seed = cfg.Seed + 4
	opts.Workers = cfg.Workers
	opts.Obs = cfg.Obs

	m := pr.Matrix
	var saveErr error
	if cfg.CheckpointPath != "" {
		opts.CheckpointEvery = 1
		path := cfg.CheckpointPath
		opts.OnCheckpoint = func(cp core.Checkpoint) {
			if serr := cp.Save(path); serr != nil && saveErr == nil {
				saveErr = serr
			}
		}
		if cp, lerr := core.LoadCheckpoint(path); lerr == nil {
			if verr := cp.ValidateFor(m, opts); verr == nil {
				opts.Resume = cp
			}
		}
	}

	full := core.NewFull(m)
	pf := core.NewPassFail(m)
	sd, st, berr := core.BuildSameDiffCtx(ctx, m, opts)
	if berr != nil {
		return Row{}, &StageError{Stage: StageDictionary, Circuit: pr.Circuit.Name, Err: berr}
	}

	row = Row{
		Circuit: pr.Circuit.Name,
		TType:   tt,
		Tests:   m.K,
		Faults:  m.N,
		Outputs: m.M,

		SizeFull: full.SizeBits(),
		SizePF:   pf.SizeBits(),
		SizeSD:   sd.NominalSizeBits(),

		IndFull:   st.IndistFull,
		IndPF:     pf.Indistinguished(),
		IndSDRand: st.IndistProc1,
		IndSDRepl: st.IndistProc2,
		Proc2Gain: st.Proc2Improved,

		IndSDFinal:      st.IndistFinal,
		StoredBaselines: st.StoredBaselines,
		SizeSDMinimized: sd.SizeBits(),
		BuildStats:      st,
		Status:          RowComplete,
		Dict:            sd,
	}
	if st.Interrupted {
		row.Status = RowInterrupted
	} else if cfg.CheckpointPath != "" {
		// Clean completion: the checkpoint is stale state now.
		core.RemoveAtomicFile(cfg.CheckpointPath)
	}
	row.Elapsed = time.Since(start)
	if saveErr != nil {
		return row, &StageError{Stage: StageDictionary, Circuit: pr.Circuit.Name,
			Err: fmt.Errorf("checkpoint save: %w", saveErr)}
	}
	return row, nil
}
