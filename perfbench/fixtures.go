package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"sddict/internal/casestore"
	"sddict/internal/core"
	"sddict/internal/dictio"
	"sddict/internal/serve"
)

// The serve fixtures are the deployed state of the service — the
// published artifact and the prior case stores — built once per checkout
// from fixtureSeed and copied pristine into every serve run. Only the
// traffic is derived from the run's -seed (DESIGN.md explains why).
const (
	fixtureSeed    = 1
	fixtureVersion = "v1"
	coldStoreCases = 10_000
	hotStoreCases  = 100_000
	// fixtureSalt keeps the fixture traffic stream apart from every run
	// seed's traffic stream, so no run replays a stored observation by
	// accident.
	fixtureSalt = 0x5eed_f1c7
	// recordBatch observations go into one recording request, well under
	// the handler's 32 MiB body limit.
	recordBatch = 256
)

// fixtures are the cached serve inputs.
type fixtures struct {
	artifact string           // published s953/10det artifact
	art      *dictio.Artifact // loaded copy, for synthesis and checks
	coldDir  string           // pristine prior store of coldStoreCases cases
	hotDir   string           // pristine prior store of hotStoreCases cases
}

// fixtureMeta is written last; its presence marks a complete fixture set.
type fixtureMeta struct {
	Version   string `json:"version"`
	Checksum  string `json:"checksum"`
	ColdCases int    `json:"cold_cases"`
	HotCases  int    `json:"hot_cases"`
}

// fixturePaths names the cached fixture files of a checkout.
func fixturePaths(b *bench) (*fixtures, string) {
	dir := filepath.Join(b.build, "fixtures", fixtureVersion)
	return &fixtures{
		artifact: filepath.Join(dir, "s953-10det.sdda"),
		coldDir:  filepath.Join(dir, "store-cold"),
		hotDir:   filepath.Join(dir, "store-hot"),
	}, dir
}

// ensureFixtures returns the cached fixtures. If this checkout has none
// yet, a child perfbench process builds them first (a minute or two:
// one sdd run plus recording the prior stores through the serve
// handler), outside every timed window. Building in a child keeps this
// process small: a child's peak RSS as wait4 reports it includes the
// parent's peak at spawn time.
func ensureFixtures(ctx context.Context, b *bench) (*fixtures, error) {
	fx, err := loadFixtures(b)
	if err != nil || fx != nil {
		return fx, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-build-fixtures")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building fixtures: %w", err)
	}
	if fx, err = loadFixtures(b); err == nil && fx == nil {
		err = errors.New("fixture build left no fixtures")
	}
	return fx, err
}

// loadFixtures returns the cached fixtures, or nil if there are none.
func loadFixtures(b *bench) (*fixtures, error) {
	fx, dir := fixturePaths(b)
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, nil
	}
	var meta fixtureMeta
	if json.Unmarshal(data, &meta) != nil || meta.Version != fixtureVersion {
		return nil, nil
	}
	art, err := dictio.Load(fx.artifact)
	if err != nil || fmt.Sprintf("%08x", art.Checksum) != meta.Checksum {
		return nil, nil
	}
	fx.art = art
	return fx, nil
}

// buildFixtures builds the fixture set from scratch (the -build-fixtures
// mode).
func buildFixtures(ctx context.Context, b *bench) error {
	fx, dir := fixturePaths(b)
	metaPath := filepath.Join(dir, "meta.json")
	fmt.Fprintln(os.Stderr, "perfbench: building serve fixtures (once per checkout)")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, b.sdd, "-circuit", "s953", "-tests", "10det",
		"-seed", fmt.Sprint(fixtureSeed), "-workers", "2", "-publish", fx.artifact)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("publishing the s953/10det artifact: %w", err)
	}
	art, err := dictio.Load(fx.artifact)
	if err != nil {
		return err
	}
	if art.Dict.ExtraBaseline != nil {
		return errors.New("artifact has two baselines per test; traffic synthesis needs one")
	}
	fx.art = art
	cases, err := recordPriorCases(ctx, fx, hotStoreCases)
	if err != nil {
		return err
	}
	if err := writeStore(fx.coldDir, cases[:coldStoreCases]); err != nil {
		return err
	}
	if err := writeStore(fx.hotDir, cases); err != nil {
		return err
	}
	meta, err := json.Marshal(fixtureMeta{Version: fixtureVersion, Checksum: fmt.Sprintf("%08x", art.Checksum),
		ColdCases: coldStoreCases, HotCases: hotStoreCases})
	if err != nil {
		return err
	}
	return os.WriteFile(metaPath, meta, 0o644)
}

// recordPriorCases records n cases through the program's own path: the
// serve.Server /diagnose handler, in-process, over an in-memory store.
// It first sends every fault's exact observation (one case per distinct
// signature; repeats recall instead of recording), then noisy
// observations of uniformly drawn faults until the store holds n cases.
// Observations go in batches so recording order, and with it every
// case ID, is deterministic.
func recordPriorCases(ctx context.Context, fx *fixtures, n int) ([]casestore.Case, error) {
	tick := time.Unix(1_700_000_000, 0)
	store, err := casestore.Open(casestore.NewMem(), casestore.Options{Clock: func() time.Time {
		tick = tick.Add(time.Millisecond)
		return tick
	}})
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Cases: store})
	if _, err := srv.LoadDictionary(fx.artifact); err != nil {
		return nil, err
	}
	dict := fx.art.Dict
	var batch [][]string
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		body, err := json.Marshal(serve.DiagnoseRequest{Dictionary: fx.artifact, Batch: batch, TopK: topK})
		if err != nil {
			return err
		}
		batch = batch[:0]
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(body)).WithContext(ctx)
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("recording prior cases: status %d: %s", rec.Code, rec.Body.String())
		}
		return ctx.Err()
	}
	for f := range dict.Rows {
		batch = append(batch, responses(dict, dict.Rows[f]))
		if len(batch) == recordBatch {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(fixtureSeed ^ fixtureSalt))
	for store.Len() < n {
		// A noisy observation that near-recalls records nothing, so top
		// up until the store is full.
		for i := 0; i < min(recordBatch, n-store.Len()); i++ {
			o := noisyObservation(rng, dict, rng.Intn(len(dict.Rows)), 3)
			batch = append(batch, responses(dict, o.sig))
		}
		if err := flush(); err != nil {
			return nil, err
		}
	}
	cases := store.Cases()
	if len(cases) != n {
		return nil, fmt.Errorf("recorded %d prior cases, want %d", len(cases), n)
	}
	return cases, nil
}

// writeStore persists cases as a case-store directory in the file
// store's snapshot layout (the JSON array its rotation writes) with an
// empty journal, then reopens it through casestore to prove the server
// will replay exactly these cases.
func writeStore(dir string, cases []casestore.Case) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := core.AtomicWriteFile(filepath.Join(dir, "snapshot.json"), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(cases)
	})
	if err != nil {
		return err
	}
	backend, err := casestore.OpenDir(dir, casestore.FileOptions{})
	if err != nil {
		return err
	}
	st, err := casestore.Open(backend, casestore.Options{})
	if err != nil {
		backend.Close()
		return err
	}
	defer st.Close()
	if st.Len() != len(cases) {
		return fmt.Errorf("store %s replays %d cases, want %d", dir, st.Len(), len(cases))
	}
	return nil
}

// copyStore copies a pristine store directory to dst, so a run's
// appends never reach the fixture.
func copyStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
