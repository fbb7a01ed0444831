package serve

// Request-span tests for the traced middleware (DESIGN.md §16):
// request-ID assignment and propagation on every response path, stage
// nesting, emission rules, panic ordering, sampling determinism under
// concurrency, wire-byte identity across tracing modes, and the
// zero-allocation cost of an attached-but-unsampled tracer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"sddict/internal/casestore"
	"sddict/internal/obs"
)

// spanEvents re-reads the span events a test run produced, asserting
// the journal itself stays schema-valid (cleanly parseable).
func spanEvents(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	var out []map[string]any
	for _, ev := range events {
		if ev.Type == "span" {
			out = append(out, ev.Fields)
		}
	}
	return out
}

// tracedServer builds a server journaling into buf at the given sample
// rate, with an in-memory case store so all four stages run.
func tracedServer(t *testing.T, buf *bytes.Buffer, sample float64) (*Server, string) {
	t.Helper()
	store, err := casestore.Open(casestore.NewMem(), casestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, Config{
		Obs:         &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTracer(buf, nil)},
		TraceSample: sample,
		Cases:       store,
	})
}

func TestDiagnoseRequestSpanAndStages(t *testing.T) {
	var buf bytes.Buffer
	s, path := tracedServer(t, &buf, 1)

	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"
	h := obs.FormatTraceparent(traceID, "00f067aa0ba902b7", true)
	data, _ := json.Marshal(DiagnoseRequest{Dictionary: path, Responses: []string{"000", "011"}})
	req := httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(data))
	req.Header.Set("traceparent", h)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Request-ID"); got != traceID {
		t.Fatalf("X-Request-ID = %q, want inbound trace id %q", got, traceID)
	}

	// Batch request on the same server: still exactly one span per
	// request, with one stage cycle per observation.
	w2 := post(t, s, "/diagnose", DiagnoseRequest{
		Dictionary: path,
		Batch:      [][]string{{"000", "011"}, {"001", "111"}, {"010", "111"}},
	})
	if w2.Code != http.StatusOK {
		t.Fatalf("batch status %d, body %s", w2.Code, w2.Body.String())
	}
	batchID := w2.Header().Get("X-Request-ID")
	if batchID == "" {
		t.Fatal("batch response missing X-Request-ID")
	}

	spans := spanEvents(t, &buf)
	perID := map[string]int{}
	for _, f := range spans {
		perID[f["request_id"].(string)]++
	}
	if perID[traceID] != 1 || perID[batchID] != 1 {
		t.Fatalf("span count per request = %v, want exactly 1 for %q and %q", perID, traceID, batchID)
	}

	for _, f := range spans {
		if f["path"] != "/diagnose" {
			t.Fatalf("span path = %v", f["path"])
		}
		durUs := int64(f["dur_us"].(float64))
		stages, ok := f["stages"].([]any)
		if !ok || len(stages) == 0 {
			t.Fatalf("span %v missing stages", f["request_id"])
		}
		names := map[string]bool{}
		for _, st := range stages {
			m := st.(map[string]any)
			names[m["name"].(string)] = true
			startUs := int64(m["start_us"].(float64))
			stageDur := int64(m["dur_us"].(float64))
			if startUs < 0 || startUs+stageDur > durUs {
				t.Errorf("stage %v [%d,%d] escapes span interval [0,%d]",
					m["name"], startUs, startUs+stageDur, durUs)
			}
		}
		for _, want := range []string{"decode", "recall", "scan", "record"} {
			if !names[want] {
				t.Errorf("span %v missing stage %q (got %v)", f["request_id"], want, names)
			}
		}
	}
	if f := spans[0]; f["parent"] != "00f067aa0ba902b7" {
		t.Errorf("inbound parent id not recorded: %v", f)
	}
}

func TestXRequestIDOnAllResponsePaths(t *testing.T) {
	var buf bytes.Buffer
	s, path := tracedServer(t, &buf, 1)

	// 200.
	if w := get(t, s, "/healthz"); w.Header().Get("X-Request-ID") == "" {
		t.Error("200 response missing X-Request-ID")
	}
	// Shed 503: fill every in-flight slot, then post.
	for i := 0; i < s.cfg.MaxInFlight; i++ {
		s.inflight <- struct{}{}
	}
	w := post(t, s, "/diagnose", DiagnoseRequest{Dictionary: path, Responses: []string{"000", "011"}})
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("expected shed 503 with Retry-After, got %d", w.Code)
	}
	if w.Header().Get("X-Request-ID") == "" {
		t.Error("shed 503 missing X-Request-ID")
	}
	for i := 0; i < s.cfg.MaxInFlight; i++ {
		<-s.inflight
	}
	// Drain 503.
	s.draining.Store(true)
	if w := get(t, s, "/readyz"); w.Code != http.StatusServiceUnavailable || w.Header().Get("X-Request-ID") == "" {
		t.Errorf("drain 503 = %d, X-Request-ID %q", w.Code, w.Header().Get("X-Request-ID"))
	}
	s.draining.Store(false)
}

// TestPanicClosesSpanWithError pins the middleware ordering contract:
// recovered(traced(handler)) means a panic first unwinds through traced
// — which closes the request span with error status — and then reaches
// recovered, which writes the 500 onto a response whose X-Request-ID
// traced already stamped. Failed spans emit even at sample 0, and the
// journal stays cleanly readable.
func TestPanicClosesSpanWithError(t *testing.T) {
	var buf bytes.Buffer
	ob := &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTracer(&buf, nil)}
	s := New(Config{Obs: ob, TraceSample: 0})

	boom := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	// Same composition New uses for s.handler.
	h := s.recovered(s.traced(boom))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/diagnose", nil))

	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	reqID := w.Header().Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("panic 500 missing X-Request-ID")
	}
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace not schema-valid after panic: %v", err)
	}
	var span map[string]any
	sawPanicEvent := false
	for _, ev := range events {
		switch ev.Type {
		case "span":
			span = ev.Fields
		case "handler_panic":
			sawPanicEvent = true
		}
	}
	if !sawPanicEvent {
		t.Error("handler_panic event missing")
	}
	if span == nil {
		t.Fatal("unsampled failed request did not emit its span")
	}
	if span["request_id"] != reqID || int(span["status"].(float64)) != 500 || span["error"] != "kaboom" {
		t.Fatalf("panic span = %v, want request %q status 500 error kaboom", span, reqID)
	}
	if ob.Metrics.Counter(obs.ServePanics) != 1 {
		t.Error("serve_panics not incremented")
	}
}

// TestWireBytesIdenticalAcrossTracing pins the nil-safe obs contract on
// the serve path: the /diagnose response body is byte-identical with
// tracing off, fully sampled, and partially sampled. (Headers differ —
// X-Request-ID is the point — but the diagnosis wire bytes cannot.)
func TestWireBytesIdenticalAcrossTracing(t *testing.T) {
	dir := t.TempDir()
	path := writeArtifact(t, dir, "toy.sdd")

	var bufOn, bufHalf bytes.Buffer
	servers := map[string]*Server{
		"off": New(Config{}),
		"on": New(Config{
			Obs:         &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTracer(&bufOn, nil)},
			TraceSample: 1,
		}),
		"half": New(Config{
			Obs:         &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTracer(&bufHalf, nil)},
			TraceSample: 0.5,
		}),
	}
	requests := []DiagnoseRequest{
		{Dictionary: path, Responses: []string{"000", "011"}},
		{Dictionary: path, Batch: [][]string{{"001", "111"}, {"000", "111"}}, TopK: 2},
		{Dictionary: path}, // 400: missing responses
	}
	for i, req := range requests {
		var wantBody string
		wantSet := false
		for _, name := range []string{"off", "on", "half"} {
			w := post(t, servers[name], "/diagnose", req)
			if !wantSet {
				wantBody, wantSet = w.Body.String(), true
				continue
			}
			if got := w.Body.String(); got != wantBody {
				t.Errorf("request %d: %s body diverges:\n  off: %q\n  %s: %q", i, name, wantBody, name, got)
			}
		}
	}
}

// TestServeSampledSetStableAcrossConcurrency replays the same
// request-ID stream against the full handler chain at several
// concurrency levels: the set of journaled spans must be identical,
// because the sampling verdict is a pure hash of the request ID.
func TestServeSampledSetStableAcrossConcurrency(t *testing.T) {
	dir := t.TempDir()
	path := writeArtifact(t, dir, "toy.sdd")
	const n = 128

	run := func(workers int) []string {
		var buf bytes.Buffer
		s := New(Config{
			Obs:         &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTracer(&buf, nil)},
			TraceSample: 0.5,
			MaxInFlight: n, // no shedding: every request must produce its one span
		})
		var wg sync.WaitGroup
		ids := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range ids {
					traceID := fmt.Sprintf("%016x%016x", 0xfeed, i+1)
					data, _ := json.Marshal(DiagnoseRequest{Dictionary: path, Responses: []string{"000", "011"}})
					req := httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(data))
					req.Header.Set("traceparent", obs.FormatTraceparent(traceID, "00f067aa0ba902b7", true))
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("status %d: %s", rec.Code, rec.Body.String())
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			ids <- i
		}
		close(ids)
		wg.Wait()

		var sampled []string
		for _, f := range spanEvents(t, &buf) {
			sampled = append(sampled, f["request_id"].(string))
		}
		sort.Strings(sampled)
		return sampled
	}

	want := run(1)
	if len(want) == 0 || len(want) == n {
		t.Fatalf("rate 0.5 sampled %d of %d — no discrimination", len(want), n)
	}
	got := run(8)
	if len(got) != len(want) {
		t.Fatalf("workers=8 sampled %d spans, workers=1 sampled %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sampled set diverges at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestDebugRequestsShowsInflight holds a diagnosis open with ChaosDelay
// and checks /debug/requests reports it with its request ID and age.
func TestDebugRequestsShowsInflight(t *testing.T) {
	var buf bytes.Buffer
	store, err := casestore.Open(casestore.NewMem(), casestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, path := newTestServer(t, Config{
		Obs:        &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTracer(&buf, nil)},
		Cases:      store,
		ChaosDelay: 300 * time.Millisecond,
		Timeout:    5 * time.Second,
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		post(t, s, "/diagnose", DiagnoseRequest{Dictionary: path, Responses: []string{"000", "011"}})
	}()

	type dump struct {
		Total    int                   `json:"total"`
		Requests []obs.InflightRequest `json:"requests"`
	}
	deadline := time.Now().Add(5 * time.Second)
	seen := false
	for !seen && time.Now().Before(deadline) {
		w := get(t, s, "/debug/requests")
		if w.Code != http.StatusOK {
			t.Fatalf("/debug/requests status %d", w.Code)
		}
		var d dump
		if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		for _, r := range d.Requests {
			if r.Path == "/diagnose" {
				seen = true
				if r.RequestID == "" || r.Method != "POST" || r.AgeMs < 0 {
					t.Fatalf("inflight entry malformed: %+v", r)
				}
			}
		}
		if !seen {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !seen {
		t.Fatal("/debug/requests never showed the in-flight diagnosis")
	}
	<-done
}

// TestDiagnoseAllocsTracerSampleZero pins the satellite claim that
// -trace-sample 0 adds zero allocations to the /diagnose hot path: a
// server with a tracer attached at sample 0 allocates exactly as much
// per request as one with no tracer at all.
func TestDiagnoseAllocsTracerSampleZero(t *testing.T) {
	dir := t.TempDir()
	path := writeArtifact(t, dir, "toy.sdd")
	data, err := json.Marshal(DiagnoseRequest{Dictionary: path, Responses: []string{"000", "011"}})
	if err != nil {
		t.Fatal(err)
	}
	h := obs.FormatTraceparent("4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7", true)

	measure := func(s *Server) float64 {
		cycle := func() {
			req := httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(data))
			req.Header.Set("traceparent", h)
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
		cycle() // warm caches and the span free list
		// Under -race, sync.Pool drops a random quarter of its Puts, so
		// a request allocates afresh a varying number of objects that
		// would have come from a pool, and an average over many requests
		// lands a whole allocation apart between measurements. The least
		// over single-request runs is the request's own count: it is
		// reached whenever no pooled object was dropped.
		least := math.Inf(1)
		for range 100 {
			least = min(least, testing.AllocsPerRun(1, cycle))
		}
		return least
	}

	baseline := measure(New(Config{}))
	traced := measure(New(Config{
		Obs:         &obs.Observer{Metrics: obs.NewMetrics(), Trace: obs.NewTracer(io.Discard, nil)},
		TraceSample: 0,
	}))
	// Identical modulo scheduling noise (pool refills): allow a
	// fraction of an allocation, not a whole one.
	if diff := traced - baseline; diff > 0.5 || diff < -0.5 {
		t.Fatalf("sample-0 tracer changes /diagnose allocations: baseline %.2f, traced %.2f", baseline, traced)
	}
}
