package core

import (
	"fmt"

	"sddict/internal/resp"
)

// Validate checks the option values that BuildSameDiffCtx would otherwise
// have to clamp or misinterpret silently. Zero values remain valid (they
// carry documented meanings: Lower 0 scans exhaustively, Calls1 0 stops
// after the first run, MaxRestarts 0 means one run); negative values are
// rejected.
func (opt Options) Validate() error {
	switch {
	case opt.Lower < 0:
		return fmt.Errorf("core: Options.Lower must be >= 0, got %d", opt.Lower)
	case opt.Calls1 < 0:
		return fmt.Errorf("core: Options.Calls1 must be >= 0, got %d", opt.Calls1)
	case opt.MaxRestarts < 0:
		return fmt.Errorf("core: Options.MaxRestarts must be >= 0, got %d", opt.MaxRestarts)
	case opt.Workers < 0:
		return fmt.Errorf("core: Options.Workers must be >= 0, got %d", opt.Workers)
	case opt.CheckpointEvery < 0:
		return fmt.Errorf("core: Options.CheckpointEvery must be >= 0, got %d", opt.CheckpointEvery)
	case opt.CheckpointEvery > 0 && opt.OnCheckpoint == nil:
		return fmt.Errorf("core: Options.CheckpointEvery set without Options.OnCheckpoint")
	}
	return nil
}

// ValidateMatrix checks that a response matrix is structurally usable for
// dictionary construction: non-nil, non-empty, with one dense class row per
// test in which class 0 (the fault-free response) is always representable.
func ValidateMatrix(m *resp.Matrix) error {
	switch {
	case m == nil:
		return fmt.Errorf("core: nil response matrix")
	case m.N <= 0:
		return fmt.Errorf("core: response matrix has no faults (N=%d)", m.N)
	case m.K <= 0:
		return fmt.Errorf("core: response matrix has no tests (K=%d)", m.K)
	case len(m.Class) != m.K:
		return fmt.Errorf("core: response matrix has %d class rows, want K=%d", len(m.Class), m.K)
	}
	for j, row := range m.Class {
		if len(row) != m.N {
			return fmt.Errorf("core: test %d has %d class entries, want N=%d", j, len(row), m.N)
		}
		nc := m.NumClasses(j)
		if nc < 1 {
			return fmt.Errorf("core: test %d has no response classes", j)
		}
		for i, c := range row {
			if c < 0 || int(c) >= nc {
				return fmt.Errorf("core: test %d fault %d has class %d outside [0,%d)", j, i, c, nc)
			}
		}
	}
	return nil
}
