// Command sddserve runs the diagnosis service: it loads published
// dictionary artifacts (`sdd -publish`) and answers HTTP diagnosis
// requests with the same ranking code the batch `diagnose` command
// uses.
//
// Usage:
//
//	sddserve -addr 127.0.0.1:8090 -dict s298.sdda [-dict s344.sdda ...]
//
// Endpoints: POST /diagnose (single or batch observations),
// GET /dictionaries + POST /dictionaries/{load,evict}, GET /cases +
// GET /cases/correlate (the diagnosis memory, with -casestore),
// GET /healthz, GET /readyz (503 while draining), GET /metrics
// (OpenMetrics), GET /debug/requests (in-flight requests with their
// current stage and age).
//
// Every request is assigned a request ID (an inbound W3C `traceparent`
// header's trace-id is honored) and echoed back as X-Request-ID on
// every response path. With -trace-out, a deterministic -trace-sample
// fraction of request spans — stage-level timing for decode, recall,
// scan and record — lands in the trace journal; requests over -slow-ms
// or failing with a 5xx always do. Analyze the journal, optionally
// joined against an sddload -journal run, with `sddstat serve`
// (DESIGN.md §16).
//
// With -casestore DIR the server remembers every diagnosis in a
// durable case store (append-only journal + periodic snapshot under
// DIR) and answers repeated or near-repeated observed signatures from
// memory — recall before recompute, byte-identical responses whenever
// served (DESIGN.md §15). A SIGKILL mid-append loses at most the torn
// final journal line; the next start replays the rest.
//
// The server degrades rather than collapses: requests beyond
// -max-inflight are shed with 503 + Retry-After, every request runs
// under -timeout, handler panics become 500s, and SIGTERM/SIGINT
// triggers a drain — stop accepting, finish in-flight work (bounded by
// -drain-timeout), exit 0. A second signal forces exit 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"sddict/internal/casestore"
	"sddict/internal/cli"
	"sddict/internal/serve"
)

func main() {
	cli.Main("sddserve", run)
}

// stringList collects a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint([]string(*s)) }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func run(ctx context.Context) error {
	var dicts stringList
	var (
		addr        = flag.String("addr", "127.0.0.1:8090", "listen address (use :0 for an ephemeral port)")
		maxInflight = flag.Int("max-inflight", 64, "in-flight request cap; excess requests are shed with 503")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request deadline")
		drain       = flag.Duration("drain-timeout", 10*time.Second, "how long to wait for in-flight requests on shutdown")
		cache       = flag.Int("cache", 8, "dictionary cache capacity (LRU beyond this)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed responses")
		chaosDelay  = flag.Duration("chaos-delay", 0, "artificially stretch every diagnosis by this much (fault-injection testing)")
		caseDir     = flag.String("casestore", "", "directory for the durable diagnosis case store (recall before recompute); empty disables")
		recall      = flag.Int("recall-budget", 2, "maximum Hamming distance for a near-match recall (with -casestore); negative disables near matching")
		snapEvery   = flag.Int("casestore-snapshot-every", 256, "journal appends between case-store snapshot rotations")
		traceSample = flag.Float64("trace-sample", 1, "fraction of request spans flushed to -trace-out, decided by a deterministic hash of the request ID; slow and failed requests always emit")
		slowMs      = flag.Int("slow-ms", 1000, "slow-request threshold in milliseconds: requests at or over it always emit their span and count serve_slow_requests; 0 disables")
	)
	flag.Var(&dicts, "dict", "dictionary artifact to preload (repeatable); a corrupt artifact fails startup")
	obsFlags := cli.RegisterObsFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", flag.Args())
	}

	sess, err := obsFlags.Start()
	if err != nil {
		return err
	}
	defer sess.Close()

	var cases *casestore.Store
	if *caseDir != "" {
		start := time.Now()
		backend, err := casestore.OpenDir(*caseDir, casestore.FileOptions{SnapshotEvery: *snapEvery})
		if err != nil {
			return fmt.Errorf("opening case store: %w", err)
		}
		cases, err = casestore.Open(backend, casestore.Options{Budget: *recall})
		if err != nil {
			backend.Close()
			return fmt.Errorf("opening case store: %w", err)
		}
		defer cases.Close()
		// The open time is the replay cost; the near-servable count is
		// what one near recall scans; a nonzero decline count means
		// values fell off the fast decoder onto encoding/json (DESIGN.md
		// §15, "Opening the store").
		fmt.Printf("sddserve: case store %s (%d prior cases, %d near-servable, recall budget %d, opened in %d ms, %d values declined to encoding/json)\n",
			*caseDir, cases.Len(), cases.NearServable(), *recall, time.Since(start).Milliseconds(), backend.Declined())
	}

	srv := serve.New(serve.Config{
		MaxInFlight:  *maxInflight,
		Timeout:      *timeout,
		DrainTimeout: *drain,
		CacheSize:    *cache,
		RetryAfter:   *retryAfter,
		ChaosDelay:   *chaosDelay,
		Cases:        cases,
		Obs:          sess.Observer,
		TraceSample:  *traceSample,
		SlowRequest:  time.Duration(*slowMs) * time.Millisecond,
	})

	// Preload before binding the port: a corrupt or missing artifact is
	// a startup failure, not a surprise on the first request.
	for _, path := range dicts {
		info, err := srv.LoadDictionary(path)
		if err != nil {
			return fmt.Errorf("preloading %s: %w", path, err)
		}
		fmt.Printf("sddserve: loaded %s (%s, %s, %d faults, %d tests, checksum %s)\n",
			info.Path, info.Circuit, info.Kind, info.Faults, info.Tests, info.Checksum)
	}

	// Start-up, mostly the case-store snapshot read, can leave the heap
	// goal at twice a transient peak instead of twice what serving keeps
	// live: 131 MB on every restart of one 10^5-case store (its 66 MB
	// snapshot buffer is live at the only start-up collection) that holds
	// ~47 MB once serving. The steady-state resident set then depends on
	// where the next collection falls. One collection resets the goal. It
	// costs 28–48 ms there, so it runs only when the goal is large enough
	// for that to matter; a 10^4-case store leaves 13 MB.
	goal := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(goal)
	if goal[0].Value.Kind() == metrics.KindUint64 && goal[0].Value.Uint64() > 64<<20 {
		runtime.GC()
	}

	//lint:ignore leakcheck ownership moves to srv.Serve; http.Server closes the listener on Shutdown
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The bound address line is the startup handshake: harness code
	// (serve_integration_test.go, sddload scripts) passes -addr :0 and
	// scrapes the actual port from here.
	fmt.Printf("sddserve: listening on %s\n", ln.Addr().String())
	os.Stdout.Sync()

	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	fmt.Println("sddserve: drained cleanly")
	return sess.Finish(os.Stdout)
}
