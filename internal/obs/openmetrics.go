package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"
)

// MetricNamespace prefixes every metric in the OpenMetrics exposition,
// keeping the repo's series distinguishable when a scraper aggregates
// several jobs.
const MetricNamespace = "sdd"

// WriteOpenMetrics renders the snapshot in the OpenMetrics/Prometheus
// text exposition format: counters as `<ns>_<name>_total`, gauges
// verbatim, histograms as cumulative `le`-labelled buckets with `_sum`
// and `_count` series, terminated by the `# EOF` marker the OpenMetrics
// spec requires. Output order is deterministic (sorted within each
// instrument class), so two snapshots of equal state render
// byte-identically.
//
// The histogram buckets are the registry's power-of-two buckets: each
// non-empty bucket [lo,hi] contributes one `le="<hi>"` sample holding
// the cumulative count through hi, and the implicit `le="+Inf"` sample
// carries the total.
func (s Snapshot) WriteOpenMetrics(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s_%s counter\n%s_%s_total %d\n",
			MetricNamespace, name, MetricNamespace, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s_%s gauge\n%s_%s %d\n",
			MetricNamespace, name, MetricNamespace, name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedHistKeys(s.Histograms) {
		hs := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s_%s histogram\n", MetricNamespace, name); err != nil {
			return err
		}
		var cum int64
		for _, b := range hs.Buckets {
			cum += b.N
			if _, err := fmt.Fprintf(w, "%s_%s_bucket{le=\"%d\"} %d\n",
				MetricNamespace, name, b.Hi, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_%s_bucket{le=\"+Inf\"} %d\n%s_%s_sum %d\n%s_%s_count %d\n",
			MetricNamespace, name, hs.Count,
			MetricNamespace, name, hs.Sum,
			MetricNamespace, name, hs.Count); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "# EOF")
	return err
}

// RuntimeGauges reads the Go runtime's process-health gauges —
// goroutine count, live heap bytes, cumulative GC pause — keyed by the
// gauge names they render under (prefixed with MetricNamespace by
// WriteOpenMetrics). App counters say what the process has done;
// these say what it costs to keep doing it, which is the half a
// scrape of a long-lived server actually alarms on.
func RuntimeGauges() map[string]int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]int64{
		"runtime_goroutines":        int64(runtime.NumGoroutine()),
		"runtime_heap_bytes":        int64(ms.HeapAlloc),
		"runtime_gc_pause_total_ns": int64(ms.PauseTotalNs),
	}
}

// WithRuntime returns a copy of s with the live RuntimeGauges merged
// into its gauge map. WriteOpenMetrics itself stays a pure function of
// the snapshot (its byte-identical-rendering guarantee holds); callers
// that want process health in the exposition opt in at scrape time.
func (s Snapshot) WithRuntime() Snapshot {
	gauges := make(map[string]int64, len(s.Gauges)+3)
	for k, v := range s.Gauges {
		gauges[k] = v
	}
	for k, v := range RuntimeGauges() {
		gauges[k] = v
	}
	s.Gauges = gauges
	return s
}

func sortedHistKeys(m map[string]HistSnapshot) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: the key sets are tiny and fixed.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// StartMetricsServerAddr serves m's live snapshot at /metrics on addr in
// the OpenMetrics text format, so long sweeps can be scraped by Prometheus
// while they run, and returns the address the listener bound (so callers
// can pass a ":0"-style addr and discover the port) and a stop function
// that shuts the listener down. Like the pprof listener (pprof.go) it
// registers on a private mux, and like it the serving goroutine is
// read-only measurement with no result to merge — the same sddlint
// concurrency exemption covers both.
func StartMetricsServerAddr(addr string, m *Metrics) (bound string, stop func() error, err error) {
	//lint:ignore leakcheck ownership moves to srv.Serve; the returned srv.Close stop func closes the listener
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: metrics listen on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		// Snapshot first, then write: a slow client must not hold
		// instrument loads open.
		snap := m.Snapshot().WithRuntime()
		_ = snap.WriteOpenMetrics(w) // client went away; nothing to salvage
	})
	// Header-read and idle timeouts keep a stalled or misbehaving
	// scraper from pinning connections open for the life of the run
	// (enforced tree-wide by the sddlint httpserver analyzer).
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go srv.Serve(ln) //nolint — observability-only goroutine; see doc comment
	return ln.Addr().String(), srv.Close, nil
}
