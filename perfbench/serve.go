package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupStarts is how many times each serve run starts sddserve to time
// set-up; the median is reported and the last instance takes the load.
const setupStarts = 5

// server is one running sddserve process.
type server struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the stdout drain has finished
}

// startServer execs sddserve on an ephemeral port with the artifact
// preloaded and the case store at storeDir replayed, and returns once
// /readyz answers 200, along with the time that took from exec.
func startServer(ctx context.Context, b *bench, fx *fixtures, storeDir string) (*server, time.Duration, error) {
	cmd := exec.Command(b.sddserve, "-addr", "127.0.0.1:0", "-dict", fx.artifact, "-casestore", storeDir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	lines := bufio.NewScanner(stdout)
	const banner = "sddserve: listening on "
	for lines.Scan() {
		if addr, ok := strings.CutPrefix(lines.Text(), banner); ok {
			s.addr = addr
			break
		}
	}
	go func() {
		defer close(s.done)
		for lines.Scan() {
		}
		_, _ = io.Copy(io.Discard, stdout) // the scanner may stop early on a huge line
	}()
	if s.addr == "" {
		s.stop()
		return nil, 0, errors.New("sddserve exited before listening")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get("http://" + s.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second || ctx.Err() != nil {
			s.stop()
			return nil, 0, fmt.Errorf("sddserve not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return s, time.Since(start), nil
}

// stop drains the server with SIGTERM (SIGKILL after 20 s) and waits
// for it and its output to finish.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		<-s.done
		_ = s.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
}

// cpuTime returns the server's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// status returns a kB field of the server's /proc status in bytes:
// VmRSS is its resident set now, VmHWM the peak so far.
func (s *server) status(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// rssEvery is how often a serve window samples the server's resident set.
const rssEvery = 100 * time.Millisecond

// rssSample is one resident-set reading.
type rssSample struct {
	at    time.Time
	bytes float64
}

// sampleRSS reads the server's VmRSS every rssEvery until stop is
// closed. A window's peak RSS is taken from the samples in its second
// half, not from VmHWM: whether a start-up GC cycle happens to mark the
// store replay's transient decides if the heap goal doubles for the
// first cycle under load, so VmHWM swings between ~230 and ~310 MB on
// serve-hot from run to run, while the second half is past that cycle.
func (s *server) sampleRSS(stop <-chan struct{}) []rssSample {
	var out []rssSample
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case now := <-tick.C:
			if v, err := s.status("VmRSS"); err == nil {
				out = append(out, rssSample{at: now, bytes: v})
			}
		}
	}
}

// recallCounters scrapes serve_recall_{hits,near,misses} from /metrics.
func (s *server) recallCounters() (hits, near, misses int64, err error) {
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, perr := strconv.ParseInt(val, 10, 64)
		switch {
		case perr != nil:
		case strings.HasSuffix(name, "serve_recall_hits_total"):
			hits = n
		case strings.HasSuffix(name, "serve_recall_near_total"):
			near = n
		case strings.HasSuffix(name, "serve_recall_misses_total"):
			misses = n
		}
	}
	return hits, near, misses, nil
}

// sample is one open-loop request's client-side record.
type sample struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

// openLoop sends bodies to /diagnose at a fixed rate regardless of how
// fast replies come back: request i is due at start + i/rate. Each of
// the conns senders owns one keep-alive connection and takes the next
// due request; when every connection is busy a request waits, and that
// wait shows as generator lateness (sent minus due) and in its latency
// (done minus due).
func openLoop(ctx context.Context, addr string, bodies [][]byte, rate float64) (time.Time, []sample) {
	out := make([]sample, len(bodies))
	url := "http://" + addr + "/diagnose"
	interval := time.Duration(float64(time.Second) / rate)
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}}
		// Open the connection before the window starts.
		if resp, err := clients[i].Get("http://" + addr + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) || ctx.Err() != nil {
					return
				}
				smp := &out[i]
				smp.due = start.Add(time.Duration(i) * interval)
				waitUntil(smp.due)
				smp.sent = time.Now()
				smp.status, smp.body, smp.err = post(c, url, bodies[i])
				smp.done = time.Now()
			}
		}(c)
	}
	wg.Wait()
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	return start, out
}

// waitUntil sleeps until shortly before t and spins the rest: Go's
// timers on Linux wake up to a millisecond late, which would otherwise
// land in every latency sample.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveRun is one server's measured window.
type serveRun struct {
	traffic *traffic
	samples []sample
	start   time.Time
	setups  []float64 // seconds, one per start
	cpu     time.Duration
	// rssBytes is the peak of rssSamples resident-set samples over the
	// window's second half; readyRSS and peakRSS are VmHWM when the
	// window opened (the set-up's share) and when it closed.
	rssBytes   float64
	rssSamples int
	readyRSS   float64
	peakRSS    float64
	hits       int64
	near       int64
	misses     int64
	failed     int
	firstErr   error
}

// serveWindow copies the pristine store, starts sddserve `starts` times
// (timing each), drives the last instance with the open loop for the
// window, then stops it and checks every reply.
func serveWindow(ctx context.Context, b *bench, fx *fixtures, m mix, seed int64, window time.Duration, starts int) (*serveRun, error) {
	n := int(offeredRate * window.Seconds())
	tr, err := makeTraffic(fx, m, seed, n)
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(b.run, m.prefix+"-store")
	if err := copyStore(m.store(fx), storeDir); err != nil {
		return nil, err
	}
	run := &serveRun{traffic: tr}
	var srv *server
	for i := 0; i < starts; i++ {
		if srv != nil {
			srv.stop()
		}
		s, setup, err := startServer(ctx, b, fx, storeDir)
		if err != nil {
			return nil, err
		}
		srv = s
		run.setups = append(run.setups, setup.Seconds())
	}
	defer srv.stop()
	if run.readyRSS, err = srv.status("VmHWM"); err != nil {
		return nil, err
	}

	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	rssDone := make(chan []rssSample, 1)
	go func() { rssDone <- srv.sampleRSS(stopRSS) }()
	run.start, run.samples = openLoop(ctx, srv.addr, tr.bodies, offeredRate)
	close(stopRSS)
	rss := <-rssDone
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	run.cpu = cpu1 - cpu0
	if run.peakRSS, err = srv.status("VmHWM"); err != nil {
		return nil, err
	}
	half := run.start.Add(window / 2)
	for _, s := range rss {
		if !s.at.Before(half) {
			run.rssSamples++
			run.rssBytes = max(run.rssBytes, s.bytes)
		}
	}
	if run.rssSamples == 0 {
		return nil, errors.New("no resident-set samples in the second half of the window")
	}
	if run.hits, run.near, run.misses, err = srv.recallCounters(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	for i, smp := range run.samples {
		var err error
		switch {
		case smp.err != nil:
			err = smp.err
		case smp.status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", smp.status, smp.body)
		default:
			err = checkResponse(fx, tr.obs[i], smp.body)
		}
		if err != nil {
			run.failed++
			if run.firstErr == nil {
				run.firstErr = fmt.Errorf("request %d: %w", i, err)
			}
		}
	}
	if got := run.hits + run.near + run.misses; got != int64(n) {
		run.failed++
		if run.firstErr == nil {
			run.firstErr = fmt.Errorf("recall counters sum to %d for %d observations", got, n)
		}
	}
	if run.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d failed ops, first: %v\n", m.name, run.failed, run.firstErr)
	}
	return run, nil
}

// latencies returns the per-request latency (done minus due) and
// generator lateness (sent minus due) in milliseconds, and the time the
// last reply arrived.
func (r *serveRun) latencies() (lat, late []float64, last time.Time) {
	for _, smp := range r.samples {
		lat = append(lat, ms(smp.done.Sub(smp.due)))
		late = append(late, ms(smp.sent.Sub(smp.due)))
		if smp.done.After(last) {
			last = smp.done
		}
	}
	return lat, late, last
}

// runServe is the end-to-end serve workload.
func runServe(ctx context.Context, b *bench, fx *fixtures, m mix, seed int64, window time.Duration) (result, error) {
	run, err := serveWindow(ctx, b, fx, m, seed, window, setupStarts)
	if err != nil {
		return result{}, err
	}
	n := len(run.samples)
	lat, late, last := run.latencies()
	ok := n - run.failed
	res := result{Attempted: n, Failed: run.failed}
	res.set("latency_p50_ms", percentile(lat, 0.50), "ms")
	res.set("throughput_per_s", float64(ok)/last.Sub(run.start).Seconds(), "1/s")
	res.set("cpu_ms_per_op", ms(run.cpu)/float64(n), "ms")
	res.set("peak_rss_mb", run.rssBytes/(1<<20), "MB")
	res.set("setup_s", median(run.setups), "s")
	fmt.Printf("# %s: %d requests at %d/s over %d connections; %d latency samples: p90 %.3f ms, p99 %.3f ms; generator lateness p50 %.3f ms, p99 %.3f ms\n",
		m.name, n, offeredRate, conns, len(lat), percentile(lat, 0.90), percentile(lat, 0.99),
		percentile(late, 0.5), percentile(late, 0.99))
	fmt.Printf("# %s: recall hits %d, near %d, misses %d; set-up starts %v s\n",
		m.name, run.hits, run.near, run.misses, run.setups)
	fmt.Printf("# %s: peak RSS of %d samples over the second half; VmHWM %.1f MB when ready, %.1f MB at the end\n",
		m.name, run.rssSamples, run.readyRSS/(1<<20), run.peakRSS/(1<<20))
	return res, nil
}
