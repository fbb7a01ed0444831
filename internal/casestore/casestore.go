// Package casestore is the diagnosis memory behind sddserve: every
// diagnosis session is recorded as a case — (circuit, test-set
// checksum, observed signature, ranked candidates, outcome) — and new
// sessions run a recall step against prior cases before paying for a
// full recompute. Recall matches the observed signature exactly (hash
// index over the packed words) and then approximately within a small
// Hamming-distance budget using word-wise XOR + popcount over the
// packed []uint64 signature, returning the cached ranking with a
// confidence score. An exact recall reproduces the recompute result
// byte for byte (same signature, same artifact, deterministic
// ranking). A near match is only *eligible*: the serve layer must
// still run the false-dedup guard — the cached candidate set has to
// equal the dictionary's top (minimum-distance) candidate set for the
// new signature — and a served near hit is explicitly marked as a
// deduplication, never passed off as a fresh diagnosis (DESIGN.md
// §15).
//
// Two backends implement persistence behind one interface: Mem (a
// bounded slice, for tests and ephemeral servers) and the durable file
// store in filestore.go (append-only JSONL journal + periodic atomic
// snapshot, crash-torn tails tolerated like obs.ReadEvents).
//
// The correlate step (correlate.go) clusters recurring candidate sets
// across sessions — "serial killers": the same defect class showing up
// again across circuits or test-set revisions.
package casestore

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"sddict/internal/logic"
	"sddict/internal/obs"
)

// Candidate is one ranked fault candidate as recorded in a case —
// mirror of the serve layer's candidate (fault row index, class name,
// Hamming distance; distance 0 for members of an exact candidate set).
type Candidate struct {
	Fault    int    `json:"fault"`
	Name     string `json:"name"`
	Distance int    `json:"distance"`
}

// Case is one recorded diagnosis session. Signature is the observed
// response signature packed into []uint64 words (logic.BitVec layout,
// SigBits valid bits); Checksum is the artifact content identity the
// diagnosis ran against and TestChecksum the test-set identity from the
// artifact header, so recall never crosses dictionary revisions and
// correlation can tell "same defect, new test set" apart.
type Case struct {
	ID           int64       `json:"id"`
	TimeMs       int64       `json:"t_ms"`
	Circuit      string      `json:"circuit"`
	TestSet      string      `json:"test_set"`
	Checksum     string      `json:"checksum"`
	TestChecksum string      `json:"test_checksum,omitempty"`
	SigBits      int         `json:"sig_bits"`
	Signature    []uint64    `json:"signature"`
	Exact        bool        `json:"exact"`
	TopK         int         `json:"top_k"`
	Failing      int         `json:"failing"`
	Candidates   []Candidate `json:"candidates"`
}

// sig returns the case signature as a BitVec (no copy).
func (c *Case) sig() logic.BitVec { return logic.BitVec(c.Signature) }

// Backend is the persistence seam: Mem keeps cases in memory, the file
// store journals them. Append must be durable when it returns (the
// store serializes calls); Cases returns everything recorded, ID
// ascending — it is read once at open to build the recall index.
type Backend interface {
	Append(Case) error
	Cases() ([]Case, error)
	Close() error
}

// RecallKind classifies a recall verdict.
type RecallKind int

const (
	// Miss: no prior case within the Hamming budget — run the full
	// recompute and record the outcome.
	Miss RecallKind = iota
	// Near: a prior case within the budget (but not exact). The caller
	// must run the false-dedup guard before serving its ranking.
	Near
	// Exact: a prior case with the identical signature against the
	// identical artifact; its recorded result is the recompute result.
	Exact
)

// String names the verdict for reports and trace events.
func (k RecallKind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Near:
		return "near"
	default:
		return "miss"
	}
}

// Recall is one recall verdict. Case is nil on a miss. Confidence is 1
// for an exact hit and discounted linearly with distance for a near hit
// (distance d in [1, budget] maps to 1 - d/(budget+1)), 0 on a miss.
type Recall struct {
	Kind       RecallKind
	Case       *Case
	Distance   int
	Confidence float64
}

// Options parameterizes a Store. The zero value is usable.
type Options struct {
	// Budget is the maximum Hamming distance for a near match.
	// Default 2; 0 keeps the default, negative disables near matching.
	Budget int
	// Clock supplies case timestamps. Default time.Now.
	Clock func() time.Time
}

// Store is the recall front over a backend: an in-memory index of every
// recorded case, keyed by artifact checksum, with a hash map for exact
// matches and a linear XOR+popcount scan over the near-servable
// (exact-outcome) cases for near matches. All methods are safe for
// concurrent use.
type Store struct {
	backend Backend
	budget  int
	clock   func() time.Time

	mu     sync.RWMutex
	nextID int64
	total  int
	byDict map[string]*dictIndex
}

// dictIndex is the per-artifact recall index.
type dictIndex struct {
	exact map[uint64][]*Case // Signature hash -> cases (hash collisions re-verified)
	cases []*Case            // ID ascending, for listing
	near  []*Case            // the exact-outcome cases, ID ascending, for near scans
}

// Open builds a Store over backend, loading every previously recorded
// case into the recall index. The Store owns the backend: Close closes
// it.
func Open(backend Backend, opt Options) (*Store, error) {
	if opt.Budget == 0 {
		opt.Budget = 2
	}
	if opt.Clock == nil {
		opt.Clock = time.Now
	}
	s := &Store{
		backend: backend,
		budget:  opt.Budget,
		clock:   opt.Clock,
		byDict:  make(map[string]*dictIndex),
	}
	cases, err := backend.Cases()
	if err != nil {
		return nil, fmt.Errorf("casestore: loading prior cases: %w", err)
	}
	for i := range cases {
		s.indexLocked(&cases[i])
	}
	return s, nil
}

// Close releases the backend.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.backend.Close()
}

// Len returns the number of recorded cases.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total
}

// indexLocked threads c into the recall index (caller holds mu or is
// single-threaded during Open).
func (s *Store) indexLocked(c *Case) {
	if c.ID > s.nextID {
		s.nextID = c.ID
	}
	di := s.byDict[c.Checksum]
	if di == nil {
		di = &dictIndex{exact: make(map[uint64][]*Case)}
		s.byDict[c.Checksum] = di
	}
	h := c.sig().Hash()
	di.exact[h] = append(di.exact[h], c)
	di.cases = append(di.cases, c)
	if c.Exact {
		di.near = append(di.near, c)
	}
	s.total++
}

// NearServable returns how many recorded cases a near recall can serve:
// the exact-outcome ones, summed over every artifact. A near recall
// scans at most this many cases.
func (s *Store) NearServable() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, di := range s.byDict {
		n += len(di.near)
	}
	return n
}

// Recall matches sig against prior cases recorded for the artifact with
// the given checksum: exact first (hash + full equality), then the
// nearest case within the Hamming budget (ties broken by lowest case
// ID, so the verdict is deterministic regardless of recording
// concurrency). An exact verdict additionally requires the recorded
// topK to be compatible with the request's: an exact-outcome case is
// served at any topK (the candidate set is the equivalence class and
// ignores topK), a ranked-outcome case only when topK matches, since
// the recompute path would truncate differently otherwise.
func (s *Store) Recall(checksum string, sig logic.BitVec, topK int) Recall {
	s.mu.RLock()
	defer s.mu.RUnlock()
	di := s.byDict[checksum]
	if di == nil {
		return Recall{Kind: Miss}
	}
	for _, c := range di.exact[sig.Hash()] {
		if len(c.Signature) == len(sig) && c.sig().Equal(sig) && (c.Exact || c.TopK == topK) {
			return Recall{Kind: Exact, Case: c, Confidence: 1}
		}
	}
	if s.budget < 0 {
		return Recall{Kind: Miss}
	}
	// Only exact-outcome cases are near-servable: a ranked fallback
	// recorded for a different signature has distances relative to that
	// signature, not this one. di.near holds exactly those, in ID order,
	// so the strict < below keeps the lowest-ID tie-break.
	var best *Case
	bestDist := s.budget + 1
	for _, c := range di.near {
		if len(c.Signature) != len(sig) {
			continue
		}
		if d := c.sig().Hamming(sig); d < bestDist {
			best, bestDist = c, d
		}
	}
	if best == nil || bestDist == 0 || bestDist > s.budget {
		// bestDist == 0 cannot serve as Near: an identical signature
		// already failed the exact test above (topK-incompatible), so
		// falling through to recompute is the only correct verdict.
		return Recall{Kind: Miss}
	}
	return Recall{
		Kind:       Near,
		Case:       best,
		Distance:   bestDist,
		Confidence: 1 - float64(bestDist)/float64(s.budget+1),
	}
}

// Record persists a new case (a recall miss that went through the full
// recompute), assigning its ID and timestamp, and threads it into the
// recall index. The populated case is returned.
func (s *Store) Record(c Case) (Case, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	c.ID = s.nextID
	c.TimeMs = s.clock().UnixMilli()
	if err := s.backend.Append(c); err != nil {
		s.nextID--
		return Case{}, fmt.Errorf("casestore: recording case: %w", err)
	}
	stored := c
	s.indexLocked(&stored)
	return c, nil
}

// RecordCtx is Record under a traced request: if ctx carries a request
// span (DESIGN.md §16), the append runs inside a "record" child stage,
// so span journals attribute case-store persistence time — the only
// disk write on the /diagnose path — separately from the scan.
func (s *Store) RecordCtx(ctx context.Context, c Case) (Case, error) {
	sp := obs.SpanFrom(ctx)
	sp.BeginStage("record")
	defer sp.EndStage()
	return s.Record(c)
}

// Cases returns a copy of every recorded case, ID ascending across all
// artifacts — the /cases listing and the correlate input.
func (s *Store) Cases() []Case {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Case, 0, s.total)
	for _, di := range s.byDict {
		for _, c := range di.cases {
			out = append(out, *c)
		}
	}
	// byDict iteration order is nondeterministic; restore ID order.
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Mem is the in-memory backend: cases live and die with the process.
type Mem struct {
	mu    sync.Mutex
	cases []Case
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem { return &Mem{} }

// Append records c.
func (m *Mem) Append(c Case) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cases = append(m.cases, c)
	return nil
}

// Cases returns the recorded cases in append order.
func (m *Mem) Cases() ([]Case, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Case, len(m.cases))
	copy(out, m.cases)
	return out, nil
}

// Close is a no-op.
func (m *Mem) Close() error { return nil }
