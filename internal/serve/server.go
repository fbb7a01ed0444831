// Package serve is the diagnosis-as-a-service layer: an HTTP server
// that loads published dictionary artifacts (internal/dictio) and
// answers observed-response queries with ranked fault candidates — the
// paper's tester-side diagnosis flow as a long-running service.
//
// Robustness is the contract (DESIGN.md §12):
//
//   - every request runs under a deadline;
//   - an in-flight cap sheds excess load with 503 + Retry-After instead
//     of queueing unboundedly;
//   - handler panics become 500s plus a handler_panic trace event, never
//     a crashed process;
//   - cancelling the Serve context (cli.Main does it on SIGTERM) drains:
//     the listener stops accepting, in-flight requests finish, and the
//     trace ends on a serve_shutdown event;
//   - corrupt artifacts are refused at load (dictio's CRC verdicts),
//     never half-served.
//
// The ranking path is core.RankRows — the same code cmd/diagnose runs —
// so batch and service diagnoses are byte-comparable.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"sddict/internal/casestore"
	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/faultfs"
	"sddict/internal/logic"
	"sddict/internal/obs"
)

// Config parameterizes a Server. The zero value is usable: every field
// falls back to the listed default.
type Config struct {
	// MaxInFlight caps concurrently admitted requests on the
	// shed-guarded routes (/diagnose, /dictionaries mutations); excess
	// requests get 503 + Retry-After. Default 64.
	MaxInFlight int
	// Timeout is the per-request deadline. Default 5s.
	Timeout time.Duration
	// DrainTimeout bounds how long Serve waits for in-flight requests
	// after its context is cancelled. Default 10s.
	DrainTimeout time.Duration
	// CacheSize is the dictionary registry's LRU capacity. Default 8.
	CacheSize int
	// RetryAfter is the hint attached to shed responses. Default 1s.
	RetryAfter time.Duration
	// ChaosDelay artificially stretches every diagnosis by this much —
	// the fault-injection hook the chaos tests use to make shedding and
	// drain windows deterministic. Default 0 (off).
	ChaosDelay time.Duration
	// FS is the filesystem artifacts load through. Default faultfs.OS.
	FS faultfs.FS
	// Cases, when non-nil, is the diagnosis memory: every /diagnose
	// observation first runs a recall step against it and only falls
	// back to the full recompute on a miss (DESIGN.md §15). nil
	// disables the tier (and the /cases endpoints report it disabled).
	Cases *casestore.Store
	// Obs receives metrics and trace events. A nil Observer (or one
	// without metrics) is upgraded to a private registry so /metrics
	// always serves.
	Obs *obs.Observer
	// Clock supplies timestamps for latency metrics. Default time.Now.
	Clock func() time.Time
	// TraceSample is the request-span sampling rate in [0,1] (DESIGN.md
	// §16): the deterministic fraction of request spans flushed to the
	// trace. Default 0 — request IDs are still assigned and echoed, and
	// slow or failed requests still emit their spans, but nothing else
	// reaches the journal. cmd/sddserve's -trace-sample flag defaults
	// to 1 instead: with a trace file attached, sampling everything is
	// the useful default.
	TraceSample float64
	// SlowRequest is the slow-request threshold: requests lasting at
	// least this long always emit their span, sampled or not, and count
	// serve_slow_requests. Default 0 (disabled).
	SlowRequest time.Duration
}

// Server is one diagnosis service instance.
type Server struct {
	cfg      Config
	ob       *obs.Observer
	reg      *registry
	cases    *casestore.Store
	spans    *obs.Spans
	handler  http.Handler
	inflight chan struct{}
	draining atomic.Bool
	clock    func() time.Time
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.CacheSize < 1 {
		cfg.CacheSize = 8
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	ob := cfg.Obs
	switch {
	case ob == nil:
		ob = &obs.Observer{Metrics: obs.NewMetrics()}
	case ob.Metrics == nil:
		ob = &obs.Observer{Metrics: obs.NewMetrics(), Trace: ob.Trace, Progress: ob.Progress, Label: ob.Label}
	}
	s := &Server{
		cfg:      cfg,
		ob:       ob,
		reg:      newRegistry(cfg.CacheSize, cfg.FS, ob),
		cases:    cfg.Cases,
		spans:    obs.NewSpans(ob, cfg.Clock, obs.SpanOptions{Sample: cfg.TraceSample, Slow: cfg.SlowRequest}),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		clock:    cfg.Clock,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /dictionaries", s.handleDictList)
	mux.HandleFunc("GET /cases", s.handleCases)
	mux.HandleFunc("GET /cases/correlate", s.handleCorrelate)
	mux.Handle("POST /dictionaries/load", s.limited(s.deadlined(http.HandlerFunc(s.handleDictLoad))))
	mux.Handle("POST /dictionaries/evict", s.limited(s.deadlined(http.HandlerFunc(s.handleDictEvict))))
	mux.Handle("POST /diagnose", s.limited(s.deadlined(http.HandlerFunc(s.handleDiagnose))))
	// traced sits inside recovered: a panic unwinds through traced first
	// (closing the request span with error status), then recovered turns
	// it into the 500 — which still carries X-Request-ID because traced
	// stamped the shared header map before the handler ran.
	s.handler = s.recovered(s.traced(mux))
	return s
}

// Handler returns the server's full middleware-wrapped handler — what
// Serve mounts, exposed for in-process tests (httptest).
func (s *Server) Handler() http.Handler { return s.handler }

// LoadDictionary loads (or reloads) the artifact at path into the
// registry — the preload hook cmd/sddserve uses so a corrupt artifact
// fails startup instead of the first request.
func (s *Server) LoadDictionary(path string) (DictionaryInfo, error) {
	e, err := s.reg.load(path)
	if err != nil {
		return DictionaryInfo{}, err
	}
	defer e.unpin()
	return DictionaryInfo{
		Path: e.path, Checksum: fmt.Sprintf("%08x", e.checksum),
		Circuit: e.header.Circuit, Kind: e.header.Kind, TestSet: e.header.TestSet,
		Faults: len(e.header.Faults), Tests: e.header.Tests, Outputs: e.header.Outputs,
	}, nil
}

// Serve accepts connections on ln until ctx is cancelled, then drains:
// stop accepting, let in-flight requests finish (bounded by
// DrainTimeout), and return. A clean drain returns nil — under cli.Main
// that maps a SIGTERM-triggered shutdown to exit code 0. The trace ends
// on a serve_shutdown event whose "clean" field records whether every
// in-flight request completed.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler: s.handler,
		// The per-request work deadline is the middleware's; these bound
		// slow-loris header dribble and idle keep-alives.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	s.ob.Emit("serve_start", map[string]any{"addr": ln.Addr().String()})

	select {
	case err := <-errc:
		// The listener died on its own (closed underneath us, accept
		// failure) — not a drain, a failure.
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	s.draining.Store(true)
	s.ob.Emit("serve_drain", map[string]any{"timeout_ms": s.cfg.DrainTimeout.Milliseconds()})
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	<-errc // reap the Serve goroutine (it returns ErrServerClosed)
	s.ob.Emit("serve_shutdown", map[string]any{"clean": err == nil})
	if err != nil {
		return fmt.Errorf("serve: drain incomplete after %v: %w", s.cfg.DrainTimeout, err)
	}
	return nil
}

// errorBody is the uniform JSON error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already out; an encode failure here has no
	// channel left to the client.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// recovered is the outermost middleware: a handler panic becomes a 500
// and a handler_panic trace event instead of tearing the process down
// mid-fleet. http.ErrAbortHandler keeps its sentinel behaviour.
func (s *Server) recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.ob.M().Inc(obs.ServePanics)
			s.ob.Emit("handler_panic", map[string]any{
				"method": r.Method, "path": r.URL.Path, "panic": fmt.Sprint(p),
			})
			// Best effort: if the handler already wrote, the 500 is lost
			// but the connection still closes in a defined state.
			writeError(w, http.StatusInternalServerError, "internal error (panic recovered)")
		}()
		h.ServeHTTP(w, r)
	})
}

// traced opens the request span (DESIGN.md §16): it assigns or
// propagates the request ID (inbound W3C traceparent wins), echoes it
// as X-Request-ID before the handler runs — so every response path,
// including shed 503s, drain 503s and recovered panic 500s, carries it
// — and closes the span on the way out. The response status is captured
// by wrapping the writer; a panic closes the span with error status and
// re-panics for the recovery middleware to convert into the 500.
func (s *Server) traced(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := s.spans.Start(r.Method, r.URL.Path, r.Header.Get("traceparent"))
		w.Header().Set("X-Request-ID", sp.RequestID())
		defer func() {
			if p := recover(); p != nil {
				sp.SetStatus(http.StatusInternalServerError)
				sp.SetError(fmt.Sprint(p))
				s.spans.End(sp)
				panic(p)
			}
			s.spans.End(sp)
		}()
		h.ServeHTTP(sp.Writer(w), r.WithContext(obs.ContextWithSpan(r.Context(), sp)))
	})
}

// limited admits a request if an in-flight slot is free and sheds it
// with 503 + Retry-After otherwise — bounded degradation instead of an
// unbounded queue collapsing tail latency.
func (s *Server) limited(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
			s.ob.M().Inc(obs.ServeRequests)
			h.ServeHTTP(w, r)
		default:
			s.ob.M().Inc(obs.ServeShed)
			s.ob.Emit("request_shed", map[string]any{"method": r.Method, "path": r.URL.Path})
			secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusServiceUnavailable, "server at capacity (%d in flight); retry after %ds",
				s.cfg.MaxInFlight, secs)
		}
	})
}

// deadlined attaches the per-request deadline to the request context.
func (s *Server) deadlined(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports readiness for new traffic: 503 once draining, so
// a load balancer stops routing here while in-flight work completes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	snap := s.ob.M().Snapshot().WithRuntime()
	_ = snap.WriteOpenMetrics(w) // client went away; nothing to salvage
}

// handleDebugRequests dumps the in-flight request set — request ID,
// route, current stage and age — the "what is this server doing right
// now" view. The dump request itself appears in its own snapshot.
func (s *Server) handleDebugRequests(w http.ResponseWriter, _ *http.Request) {
	in := s.spans.Inflight()
	if in == nil {
		in = []obs.InflightRequest{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"total": len(in), "requests": in})
}

func (s *Server) handleDictList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"dictionaries": s.reg.list()})
}

// pathRequest is the body of the load/evict dictionary actions.
type pathRequest struct {
	Path string `json:"path"`
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return false
	}
	return true
}

// loadStatus maps a registry load failure onto an HTTP status: missing
// file 404, damaged or foreign artifact 422, anything else 500.
func loadStatus(err error) int {
	switch {
	case errors.Is(err, os.ErrNotExist):
		return http.StatusNotFound
	case errors.Is(err, dictio.ErrCorruptArtifact), errors.Is(err, dictio.ErrArtifactVersion):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleDictLoad(w http.ResponseWriter, r *http.Request) {
	var req pathRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "missing path")
		return
	}
	info, err := s.LoadDictionary(req.Path)
	if err != nil {
		writeError(w, loadStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDictEvict(w http.ResponseWriter, r *http.Request) {
	var req pathRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "missing path")
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"evicted": s.reg.evict(req.Path)})
}

// DiagnoseRequest is the /diagnose body. Exactly one of Responses (a
// single observation: one 0/1 output vector per test) or Batch (several
// observations) must be set. TopK bounds the nearest-match fallback
// when no fault matches exactly; 0 means 5.
type DiagnoseRequest struct {
	Dictionary string     `json:"dictionary"`
	Responses  []string   `json:"responses,omitempty"`
	Batch      [][]string `json:"batch,omitempty"`
	TopK       int        `json:"top_k,omitempty"`
}

// Candidate is one ranked fault candidate, named from the artifact's
// fault-class table.
type Candidate struct {
	Fault    int    `json:"fault"`
	Name     string `json:"name"`
	Distance int    `json:"distance"`
}

// RecallInfo marks a result served from the case store's near-match
// path: the observed signature was within the Hamming budget of a prior
// case whose candidate set the dictionary confirms as the top candidate
// set for this signature too. Exact recalls carry no marker — they are
// byte-identical to the recompute path, marker included.
type RecallInfo struct {
	Kind       string  `json:"kind"`
	Case       int64   `json:"case"`
	Distance   int     `json:"distance"`
	Confidence float64 `json:"confidence"`
}

// DiagnoseResult is the diagnosis of one observation.
type DiagnoseResult struct {
	// Failing counts signature bits set ("different" verdicts).
	Failing int `json:"failing"`
	// Exact reports whether the candidates matched the signature
	// exactly (distance 0); false means nearest-match fallback.
	Exact      bool        `json:"exact"`
	Candidates []Candidate `json:"candidates"`
	// Recall is set only on a near-match serve from the case store.
	Recall *RecallInfo `json:"recall,omitempty"`
}

// DiagnoseResponse is the /diagnose reply: one result per observation,
// stamped with the artifact identity that produced it.
type DiagnoseResponse struct {
	Dictionary string           `json:"dictionary"`
	Checksum   string           `json:"checksum"`
	Results    []DiagnoseResult `json:"results"`
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	sp := obs.SpanFrom(r.Context())
	sp.BeginStage("decode")
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := decodeDiagnoseRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if req.Dictionary == "" {
		writeError(w, http.StatusBadRequest, "missing dictionary")
		return
	}
	batch := req.Batch
	if req.Responses != nil {
		if batch != nil {
			writeError(w, http.StatusBadRequest, "set either responses or batch, not both")
			return
		}
		batch = [][]string{req.Responses}
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, "no responses to diagnose")
		return
	}
	e, err := s.reg.get(req.Dictionary)
	if err != nil {
		writeError(w, loadStatus(err), "%v", err)
		return
	}
	// The entry stays pinned for the whole batch: an evict (explicit or
	// LRU) racing this request unlinks it from the registry but cannot
	// invalidate it under us (see registry.go's pin contract).
	defer e.unpin()
	topK := req.TopK
	if topK <= 0 {
		topK = 5
	}
	resp := DiagnoseResponse{
		Dictionary: e.path,
		Checksum:   fmt.Sprintf("%08x", e.checksum),
		Results:    make([]DiagnoseResult, 0, len(batch)),
	}
	ctx := r.Context()
	for i, lines := range batch {
		if err := ctx.Err(); err != nil {
			writeError(w, http.StatusGatewayTimeout, "deadline exceeded after %d of %d observations", i, len(batch))
			return
		}
		if s.cfg.ChaosDelay > 0 {
			t := time.NewTimer(s.cfg.ChaosDelay)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				writeError(w, http.StatusGatewayTimeout, "deadline exceeded after %d of %d observations", i, len(batch))
				return
			}
		}
		// Per-observation decode stage: a batch request shows one
		// decode/recall/scan/record stage cycle per observation, which
		// sddstat aggregates by stage name.
		sp.BeginStage("decode")
		vectors, err := dictio.ParseVectors(lines, e.header.Outputs)
		if err != nil {
			writeError(w, http.StatusBadRequest, "observation %d: %v", i+1, err)
			return
		}
		res, err := s.diagnoseOne(ctx, e, vectors, topK)
		if err != nil {
			writeError(w, http.StatusBadRequest, "observation %d: %v", i+1, err)
			return
		}
		resp.Results = append(resp.Results, res)
	}
	sp.EndStage()
	writeJSON(w, http.StatusOK, resp)
}

// diagnoseOne runs one observation through the compiled dictionary,
// recall before recompute: with a case store attached, a prior case
// with the identical signature (exact hit) or within the Hamming
// budget *and* passing the false-dedup guard (near hit) supplies the
// cached ranking; otherwise — and always without a store — the path is
// exact candidates if any row matches the signature, else the topK
// nearest rows via core.RankRows, the identical path cmd/diagnose
// takes.
//
// An exact recall is byte-identical to what the recompute path would
// have produced: same signature, same artifact, deterministic ranking,
// and no extra fields. A near recall is a *deduplication* — the cached
// case's ranking served for a new, similar signature — so it is
// explicitly marked with a recall block carrying the distance and the
// distance-discounted confidence, and it is only served when the guard
// confirms the cached candidate set is the dictionary's own top
// candidate set for the new signature.
func (s *Server) diagnoseOne(ctx context.Context, e *entry, vectors []logic.BitVec, topK int) (DiagnoseResult, error) {
	start := s.clock()
	sp := obs.SpanFrom(ctx)
	dict := e.dict.Dict
	sig, err := dict.Signature(vectors)
	if err != nil {
		return DiagnoseResult{}, err
	}
	res := DiagnoseResult{Failing: sig.PopCount()}
	if s.cases != nil {
		sp.BeginStage("recall")
		if rc, ok := s.recall(e, sig, topK); ok {
			cached := rc.Case
			res.Exact = cached.Exact
			for _, c := range cached.Candidates {
				res.Candidates = append(res.Candidates, Candidate{
					Fault: c.Fault, Name: c.Name, Distance: c.Distance,
				})
			}
			if rc.Kind == casestore.Near {
				res.Recall = &RecallInfo{
					Kind: rc.Kind.String(), Case: cached.ID,
					Distance: rc.Distance, Confidence: rc.Confidence,
				}
			}
			s.ob.M().Observe(obs.DiagnoseUs, s.clock().Sub(start).Microseconds())
			sp.EndStage()
			return res, nil
		}
	}
	sp.BeginStage("scan")
	if exact := dict.Candidates(sig); len(exact) > 0 {
		res.Exact = true
		for _, f := range exact {
			res.Candidates = append(res.Candidates, Candidate{Fault: f, Name: e.header.Faults[f]})
		}
	} else {
		for _, rk := range dict.Rank(sig, topK) {
			res.Candidates = append(res.Candidates, Candidate{
				Fault: rk.Fault, Name: e.header.Faults[rk.Fault], Distance: rk.Distance,
			})
		}
	}
	if s.cases != nil {
		s.record(ctx, e, sig, topK, res)
	}
	s.ob.M().Observe(obs.DiagnoseUs, s.clock().Sub(start).Microseconds())
	sp.EndStage()
	return res, nil
}

// recall runs the case-store recall step for one observation and
// reports whether a cached case may be served. Every call increments
// exactly one of the serve_recall_{hits,near,misses} counters, so the
// three sum to the number of observations diagnosed while the store
// was attached.
//
// A near match passes through the false-dedup guard before it is
// served: the dictionary's exact candidate set for *this* signature is
// recomputed (one O(rows) scan — cheap next to the rank fallback) and
// must equal the cached case's candidate set. A near-matched case whose
// candidates disagree is a different defect wearing a similar
// signature; serving it would be a false dedup, so the verdict demotes
// to a miss and the recompute path runs.
func (s *Server) recall(e *entry, sig logic.BitVec, topK int) (casestore.Recall, bool) {
	start := s.clock()
	rc := s.cases.Recall(checksumKey(e.checksum), sig, topK)
	served := false
	switch rc.Kind {
	case casestore.Exact:
		s.ob.M().Inc(obs.ServeRecallHits)
		served = true
	case casestore.Near:
		if s.guardNear(e.dict.Dict, sig, rc.Case) {
			s.ob.M().Inc(obs.ServeRecallNear)
			served = true
		} else {
			rc = casestore.Recall{Kind: casestore.Miss}
			s.ob.M().Inc(obs.ServeRecallMisses)
		}
	default:
		s.ob.M().Inc(obs.ServeRecallMisses)
	}
	s.ob.M().Observe(obs.RecallUs, s.clock().Sub(start).Microseconds())
	if s.ob.Tracing() {
		fields := map[string]any{"kind": rc.Kind.String(), "confidence": rc.Confidence}
		if rc.Case != nil {
			fields["case"] = rc.Case.ID
			fields["distance"] = rc.Distance
		}
		s.ob.Emit("case_recall", fields)
	}
	return rc, served
}

// guardNear is the false-dedup guard: a near-matched case may only be
// served if its candidate set equals the dictionary's *top candidate
// set* for the new signature — the rows at minimum Hamming distance,
// exactly the first tier core.RankRows would return. A near case whose
// candidates are not the nearest explanation of the new signature is a
// different defect wearing a similar signature; serving it would be a
// false dedup, so the verdict demotes to a miss and the recompute path
// runs. One O(rows) XOR+popcount scan, the same cost as the rank
// fallback's scan without its heap.
//
// best == 0 (the signature matches rows exactly) always fails the
// guard: the cached case's rows equal a *different* signature, so set
// equality is impossible, and the recompute path owns exact matches.
func (s *Server) guardNear(dict *core.Compiled, sig logic.BitVec, c *casestore.Case) bool {
	best := -1
	var top []int
	for i, row := range dict.Rows {
		d := row.Hamming(sig)
		if best < 0 || d < best {
			best, top = d, top[:0]
		}
		if d == best {
			top = append(top, i)
		}
	}
	if best <= 0 || len(top) != len(c.Candidates) {
		return false
	}
	for i, f := range top {
		if c.Candidates[i].Fault != f {
			return false
		}
	}
	return true
}

// record persists the outcome of a recompute as a new case. A failed
// append degrades to a trace event: the caching tier must never break
// the diagnosis that just succeeded. The store's RecordCtx opens the
// "record" stage on the request span carried by ctx.
func (s *Server) record(ctx context.Context, e *entry, sig logic.BitVec, topK int, res DiagnoseResult) {
	c := casestore.Case{
		Circuit:      e.header.Circuit,
		TestSet:      e.header.TestSet,
		Checksum:     checksumKey(e.checksum),
		TestChecksum: e.header.TestChecksum,
		SigBits:      e.dict.Dict.SignatureBits(),
		Signature:    append([]uint64(nil), sig...),
		Exact:        res.Exact,
		TopK:         topK,
		Failing:      res.Failing,
	}
	for _, cand := range res.Candidates {
		c.Candidates = append(c.Candidates, casestore.Candidate{
			Fault: cand.Fault, Name: cand.Name, Distance: cand.Distance,
		})
	}
	rec, err := s.cases.RecordCtx(ctx, c)
	if err != nil {
		s.ob.Emit("case_record_error", map[string]any{"error": err.Error()})
		return
	}
	s.ob.Emit("case_record", map[string]any{"case": rec.ID, "exact": rec.Exact})
}

// checksumKey renders an artifact checksum the way every endpoint does.
func checksumKey(sum uint32) string { return fmt.Sprintf("%08x", sum) }

// handleCases lists the recorded diagnosis memory.
func (s *Server) handleCases(w http.ResponseWriter, _ *http.Request) {
	if s.cases == nil {
		writeError(w, http.StatusNotFound, "case store disabled (start sddserve with -casestore)")
		return
	}
	cases := s.cases.Cases()
	writeJSON(w, http.StatusOK, map[string]any{"total": len(cases), "cases": cases})
}

// handleCorrelate reports recurring candidate sets across the recorded
// cases — JSON by default, the sddstat-style text rendering with
// ?format=text.
func (s *Server) handleCorrelate(w http.ResponseWriter, r *http.Request) {
	if s.cases == nil {
		writeError(w, http.StatusNotFound, "case store disabled (start sddserve with -casestore)")
		return
	}
	report := casestore.Correlate(s.cases.Cases())
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = report.WriteText(w) // client went away; nothing to salvage
		return
	}
	writeJSON(w, http.StatusOK, report)
}
