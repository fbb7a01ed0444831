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
	"os"
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

// Config bundles the per-row knobs. Zero values are replaced by defaults
// scaled to the circuit size.
type Config struct {
	Seed int64
	// Effort in [0,1] scales the expensive knobs (Procedure 1 restarts,
	// miter budgets) down for large circuits. 1 = paper-faithful effort.
	Effort float64
	// Workers bounds the parallelism inside one row: the response-matrix
	// fault sweep and the Procedure 1 restart search both fan out across
	// this many workers (0 = one per available CPU, 1 = sequential). Every
	// setting produces byte-identical rows (DESIGN.md §9).
	Workers int
	// DetectCfg, DiagCfg and DictOpts override the scaled defaults when
	// non-nil.
	DetectCfg *atpg.Config
	DiagCfg   *atpg.DiagConfig
	DictOpts  *core.Options

	// CheckpointPath, when non-empty, makes dictionary construction
	// persist its restart state to this file so a killed run can resume.
	// If the file already exists and matches the matrix and options, the
	// search resumes from it; the file is rewritten every CheckpointEvery
	// completed restarts and removed on clean completion.
	CheckpointPath string
	// CheckpointEvery is the restart interval between checkpoint writes
	// (default 1 when CheckpointPath is set).
	CheckpointEvery int

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
	Coverage        float64
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

// scaledEffort returns the default effort for a gate count: full effort for
// small circuits, reduced for the big ones so a Table-6 sweep stays
// tractable on one core.
func scaledEffort(gates int) float64 {
	switch {
	case gates <= 700:
		return 1
	case gates <= 3000:
		return 0.35
	default:
		return 0.12
	}
}

// dictOptions derives core.Options from effort.
func dictOptions(seed int64, effort float64) core.Options {
	opt := core.DefaultOptions
	opt.Seed = seed
	opt.Calls1 = max(2, int(float64(opt.Calls1)*effort))
	opt.MaxRestarts = max(4, int(float64(opt.MaxRestarts)*effort))
	return opt
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PrepareProfile synthesizes the named circuit profile and generates the
// requested test set, returning the prepared pipeline state.
func PrepareProfile(name string, tt TestSetType, cfg Config) (*Prepared, error) {
	return PrepareProfileCtx(context.Background(), name, tt, cfg)
}

// PrepareProfileCtx is PrepareProfile under a context.
func PrepareProfileCtx(ctx context.Context, name string, tt TestSetType, cfg Config) (pr *Prepared, err error) {
	defer recoverStage(StageSynthesize, name, &err)
	p, err := gen.Named(name)
	if err != nil {
		return nil, err
	}
	seq := p.MustGenerate(cfg.Seed + 1)
	return PrepareCtx(ctx, seq, tt, cfg)
}

// Prepare runs the front half of the pipeline on an arbitrary (possibly
// sequential) circuit: full-scan conversion, fault collapsing, test
// generation and full-response fault simulation.
func Prepare(c *netlist.Circuit, tt TestSetType, cfg Config) (*Prepared, error) {
	return PrepareCtx(context.Background(), c, tt, cfg)
}

// PrepareCtx is Prepare under a context. The front half has no usable
// partial result — a truncated test set or response matrix would silently
// distort every dictionary derived from it — so cancellation here returns
// an error (wrapping ctx.Err()) rather than degraded state.
func PrepareCtx(ctx context.Context, c *netlist.Circuit, tt TestSetType, cfg Config) (pr *Prepared, err error) {
	defer recoverStage(StagePrepare, circuitName(c), &err)
	if ctx == nil {
		ctx = context.Background()
	}
	comb := netlist.Combinationalize(c)
	col := fault.Collapse(comb)
	effort := cfg.Effort
	if effort <= 0 {
		effort = scaledEffort(comb.NumLogicGates())
	}

	gates := comb.NumLogicGates()
	var tests *pattern.Set
	var info string
	switch tt {
	case TenDetect:
		dcfg := atpg.DefaultConfig(10)
		dcfg.Seed = cfg.Seed + 2
		// Bound the matrix size on large circuits: a 10-detection set is
		// naturally about 10x a detection set; past a few thousand tests
		// the extra patterns add resolution the dictionaries do not need.
		switch {
		case gates > 3000:
			dcfg.MaxTests = 9000
		case gates > 700:
			dcfg.MaxTests = 7000
		}
		if cfg.DetectCfg != nil {
			dcfg = *cfg.DetectCfg
		}
		set, st := atpg.GenerateDetectionCtx(ctx, comb, col.Faults, dcfg)
		tests = set
		info = fmt.Sprintf("10det: %d random + %d podem tests, coverage %.1f%%, %d untestable",
			st.RandomTests, st.PodemTests, 100*st.Coverage(), st.Untestable)
	case Diagnostic:
		dcfg := atpg.DefaultConfig(1)
		dcfg.Seed = cfg.Seed + 2
		dcfg.Compact = true
		if cfg.DetectCfg != nil {
			dcfg = *cfg.DetectCfg
		}
		base, st := atpg.GenerateDetectionCtx(ctx, comb, col.Faults, dcfg)
		gcfg := atpg.DefaultDiagConfig()
		gcfg.Seed = cfg.Seed + 3
		gcfg.MaxMiterCalls = max(200, int(3000*effort))
		// Large circuits: SAT rarely closes the hardest pairs, so spend
		// the budget on random distinguishing patience instead.
		switch {
		case gates > 3000:
			gcfg.UselessBatchLimit = 30
			gcfg.MaxMiterCalls = 250
			gcfg.SATConflictBudget = 3000
			gcfg.MaxSATCalls = 30
		case gates > 700:
			gcfg.UselessBatchLimit = 20
			gcfg.SATConflictBudget = 8000
			gcfg.MaxSATCalls = 40
		}
		if cfg.DiagCfg != nil {
			gcfg = *cfg.DiagCfg
		}
		set, dst := atpg.GenerateDiagnosticCtx(ctx, comb, col.Faults, base, gcfg)
		tests = set
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

	m, merr := resp.BuildObsCtx(ctx, cfg.Workers, netlist.NewScanView(comb), col.Faults, tests, cfg.Obs)
	if merr != nil {
		return nil, &StageError{Stage: StagePrepare, Circuit: c.Name,
			Err: fmt.Errorf("response matrix: %w", merr)}
	}
	return &Prepared{Circuit: comb, Faults: col.Faults, Tests: tests, Matrix: m, GenInfo: info}, nil
}

// BuildRow runs the back half of the pipeline (dictionary construction) on
// prepared state.
func BuildRow(pr *Prepared, tt TestSetType, cfg Config) Row {
	row, err := BuildRowCtx(context.Background(), pr, tt, cfg)
	if err != nil {
		panic(err) // preserved pre-context behaviour: invalid options panicked
	}
	return row
}

// BuildRowCtx is BuildRow under a context. Dictionary construction is an
// anytime search, so cancellation degrades gracefully: the returned Row
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
	effort := cfg.Effort
	if effort <= 0 {
		effort = scaledEffort(pr.Circuit.NumLogicGates())
	}
	opts := dictOptions(cfg.Seed+4, effort)
	opts.Workers = cfg.Workers
	if cfg.DictOpts != nil {
		opts = *cfg.DictOpts
	}
	if opts.Obs == nil {
		opts.Obs = cfg.Obs
	}

	m := pr.Matrix
	var saveErr error
	if cfg.CheckpointPath != "" {
		opts.CheckpointEvery = cfg.CheckpointEvery
		if opts.CheckpointEvery <= 0 {
			opts.CheckpointEvery = 1
		}
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
		os.Remove(cfg.CheckpointPath)
	}
	row.Elapsed = time.Since(start)
	if saveErr != nil {
		return row, &StageError{Stage: StageDictionary, Circuit: pr.Circuit.Name,
			Err: fmt.Errorf("checkpoint save: %w", saveErr)}
	}
	return row, nil
}

// RunProfileRow executes the full pipeline for one Table-6 row.
func RunProfileRow(name string, tt TestSetType, cfg Config) (Row, error) {
	return RunProfileRowCtx(context.Background(), name, tt, cfg)
}

// RunProfileRowCtx is RunProfileRow under a context: cancellation during
// test generation errors out, cancellation during dictionary construction
// yields a best-so-far Row with Status RowInterrupted.
func RunProfileRowCtx(ctx context.Context, name string, tt TestSetType, cfg Config) (Row, error) {
	pr, err := PrepareProfileCtx(ctx, name, tt, cfg)
	if err != nil {
		return Row{}, err
	}
	row, err := BuildRowCtx(ctx, pr, tt, cfg)
	if err != nil {
		return row, err
	}
	row.Circuit = name
	return row, nil
}
