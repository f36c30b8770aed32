package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestHelperKampaigndWorker is not a test: re-invoked as a subprocess,
// it serves real injections as a kampaignd worker over stdin/stdout.
func TestHelperKampaigndWorker(t *testing.T) {
	if os.Getenv("KAMPAIGND_WORKER_HELPER") == "" {
		return
	}
	if err := run([]string{"-worker"}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "worker helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestHelperKampaigndMain is not a test: re-invoked as a subprocess,
// it runs a full kampaignd daemon (args from KAMPAIGND_ARGS) with
// worker subprocesses pointed back at this binary — the victim process
// for the SIGKILL crash-recovery test.
func TestHelperKampaigndMain(t *testing.T) {
	if os.Getenv("KAMPAIGND_MAIN_HELPER") == "" {
		return
	}
	workerCommand = helperWorkerCommand
	if err := run(strings.Fields(os.Getenv("KAMPAIGND_ARGS")), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "main helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func helperWorkerCommand() *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperKampaigndWorker$")
	cmd.Env = append(os.Environ(), "KAMPAIGND_WORKER_HELPER=1")
	return cmd
}

func useHelperWorkers(t *testing.T) {
	t.Helper()
	orig := workerCommand
	workerCommand = helperWorkerCommand
	t.Cleanup(func() { workerCommand = orig })
}

// testSpec is the standard small study every e2e test runs.
func testSpec(campaigns string) wire.StudySpec {
	return wire.StudySpec{
		Seed:                2003,
		Scale:               1,
		Campaigns:           campaigns,
		MaxFuncsPerCampaign: 3,
		MaxTargetsPerFunc:   2,
	}
}

// referenceSet runs the same study in-process, single-machine — the
// exact configuration kinject uses — and returns the saved ResultSet
// bytes the fleet's merged output must reproduce.
func referenceSet(t *testing.T, path string, spec wire.StudySpec) []byte {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.Scale = spec.Scale
	cfg.MaxTargetsPerFunc = spec.MaxTargetsPerFunc
	cfg.MaxFuncsPerCampaign = spec.MaxFuncsPerCampaign
	cfg.DisableAssertions = spec.DisableAssertions
	cfg.FaultModel = spec.FaultModel
	cs, err := analysis.ParseCampaigns(spec.Campaigns)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Campaigns = cs
	s, err := core.New(cfg)
	if err != nil {
		t.Fatalf("reference study: %v", err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("reference study: %v", err)
	}
	if err := s.Set.Save(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func submit(t *testing.T, baseURL string, spec wire.StudySpec, shardSize int) string {
	t.Helper()
	body, err := json.Marshal(submitRequest{StudySpec: spec, ShardSize: shardSize})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, msg)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("submit returned no campaign id")
	}
	return out.ID
}

func getStatus(t *testing.T, baseURL, id string) campaignStatus {
	t.Helper()
	resp, err := http.Get(baseURL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %s: %s: %s", id, resp.Status, msg)
	}
	var st campaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitComplete(t *testing.T, baseURL, id string, timeout time.Duration) campaignStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, baseURL, id)
		switch st.State {
		case stateComplete:
			return st
		case stateFailed:
			t.Fatalf("campaign %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %s after %s (progress %d/%d)",
				id, st.State, timeout, st.Progress.Done, st.Progress.Total)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fetchResults(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("results %s: %s: %s", id, resp.Status, msg)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func testPlan(chaosPoolKill int) poolPlan {
	return poolPlan{
		pools:         2,
		workers:       1,
		shardSize:     2,
		chaosPoolKill: chaosPoolKill,
	}
}

// The tentpole acceptance: a study submitted over HTTP, sharded across
// two worker pools, merges to the byte-exact ResultSet of a
// single-process in-process run.
func TestKampaigndTwoPoolParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections in subprocesses")
	}
	useHelperWorkers(t)
	dir := t.TempDir()
	spec := testSpec("C")
	want := referenceSet(t, filepath.Join(dir, "ref.json.gz"), spec)

	m := newManager(filepath.Join(dir, "data"), testPlan(0))
	if err := os.MkdirAll(m.dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(m))
	defer ts.Close()

	id := submit(t, ts.URL, spec, 2)
	st := waitComplete(t, ts.URL, id, 4*time.Minute)
	if st.Progress.Done != int64(st.Progress.Total) || st.Progress.Total == 0 {
		t.Fatalf("progress %d/%d after completion", st.Progress.Done, st.Progress.Total)
	}
	if st.Queue == nil || st.Queue.Done != st.Queue.Total {
		t.Fatalf("queue not drained: %+v", st.Queue)
	}
	got := fetchResults(t, ts.URL, id)
	if !bytes.Equal(got, want) {
		t.Fatal("two-pool merged result set differs from the single-process run")
	}

	// Every accounted ordinal is counted as a run or a quarantine, both
	// in the status and in the merged journal's trailer, and every
	// pool's runs land in its own per-worker row.
	j, err := journal.Read(filepath.Join(m.dataDir, id, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]*obs.Snapshot{"status": st.Metrics, "trailer": j.Trailer} {
		if snap == nil {
			t.Fatalf("%s: no metrics", name)
		}
		if got := snap.RunsCompleted + snap.Quarantined; got != st.Progress.Done {
			t.Fatalf("%s: RunsCompleted %d + Quarantined %d != Progress.Done %d",
				name, snap.RunsCompleted, snap.Quarantined, st.Progress.Done)
		}
		var rows int64
		for _, w := range snap.Workers {
			rows += w.Runs
		}
		if len(snap.Workers) != 2 || rows != snap.RunsCompleted {
			t.Fatalf("%s: per-pool rows %+v hold %d runs, want 2 rows holding %d",
				name, snap.Workers, rows, snap.RunsCompleted)
		}
	}
}

// A pool killed outright mid-campaign must not cost a byte: its leased
// shard goes back on the queue, the surviving pool finishes it, and
// the merged results still match the single-process reference.
func TestKampaigndPoolDeathMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections in subprocesses")
	}
	useHelperWorkers(t)
	dir := t.TempDir()
	spec := testSpec("C")
	want := referenceSet(t, filepath.Join(dir, "ref.json.gz"), spec)

	// Pool 0 dies after its first run — mid-shard, with its lease held.
	m := newManager(filepath.Join(dir, "data"), testPlan(1))
	if err := os.MkdirAll(m.dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(m))
	defer ts.Close()

	id := submit(t, ts.URL, spec, 2)
	st := waitComplete(t, ts.URL, id, 4*time.Minute)

	var dead, alive int
	for _, p := range st.Pools {
		if p.Alive {
			alive++
		} else {
			dead++
		}
	}
	if dead != 1 || alive != 1 {
		t.Fatalf("pool status after chaos kill: %+v (want exactly one dead)", st.Pools)
	}
	if st.Metrics == nil || st.Metrics.PoolDeaths != 1 {
		t.Fatalf("metrics missed the pool death: %+v", st.Metrics)
	}
	got := fetchResults(t, ts.URL, id)
	if !bytes.Equal(got, want) {
		t.Fatal("merged result set differs from the reference after a mid-campaign pool death")
	}
}

// startDaemon execs the daemon helper against the given data dir and
// returns the process and its base URL (parsed from the listen line).
func startDaemon(t *testing.T, dataDir string) (*exec.Cmd, string, chan struct{}) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperKampaigndMain$")
	cmd.Env = append(os.Environ(),
		"KAMPAIGND_MAIN_HELPER=1",
		"KAMPAIGND_ARGS=-listen 127.0.0.1:0 -data "+dataDir+" -pools 2 -pool-workers 1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()

	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "kampaignd listening on "); ok {
				select {
				case urlc <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	select {
	case u := <-urlc:
		return cmd, u, exited
	case <-exited:
		t.Fatal("daemon exited before announcing its listen address")
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill()
		t.Fatal("daemon never announced its listen address")
	}
	return nil, "", nil
}

// SIGKILLing the whole daemon mid-campaign — no drain, no Close,
// leases held, pools orphaned — must leave durable state a restarted
// daemon resumes to the exact uninterrupted result set: no ordinal
// duplicated, none lost.
func TestKampaigndSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections in subprocesses")
	}
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	spec := testSpec("ABC")
	want := referenceSet(t, filepath.Join(dir, "ref.json.gz"), spec)

	victim, baseURL, exited := startDaemon(t, dataDir)
	id := submit(t, baseURL, spec, 2)
	jpath := filepath.Join(dataDir, id, journalFile)

	// Kill as soon as at least one result is durably journaled, so the
	// SIGKILL lands with work behind and ahead of it. If the tiny study
	// outruns the poll, the kill degrades to a post-completion no-op and
	// the assertions below still must hold.
	deadline := time.After(2 * time.Minute)
poll:
	for {
		select {
		case <-exited:
			break poll
		case <-deadline:
			victim.Process.Kill()
			t.Fatal("victim daemon made no journal progress within 2 minutes")
		case <-time.After(2 * time.Millisecond):
			if j, err := journal.Read(jpath); err == nil && j.CompletedCount() >= 1 {
				victim.Process.Signal(syscall.SIGKILL)
				break poll
			}
		}
	}
	<-exited

	// The torn journal must verify as recoverable, never corrupt.
	rep, err := journal.Verify(jpath)
	if err != nil {
		t.Fatalf("verify after SIGKILL: %v", err)
	}
	if rep.Corrupt != nil {
		t.Fatalf("SIGKILL produced mid-file corruption: %+v", rep.Corrupt)
	}

	// A restarted daemon on the same data dir resumes the campaign by
	// itself — no resubmission, same id.
	daemon2, baseURL2, exited2 := startDaemon(t, dataDir)
	defer func() {
		daemon2.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited2:
		case <-time.After(30 * time.Second):
			daemon2.Process.Kill()
		}
	}()
	st := waitComplete(t, baseURL2, id, 4*time.Minute)
	if st.Progress.Done != int64(st.Progress.Total) {
		t.Fatalf("resumed progress %d/%d", st.Progress.Done, st.Progress.Total)
	}
	got := fetchResults(t, baseURL2, id)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed merged result set differs from the uninterrupted reference")
	}

	// No duplicated or lost ordinals across the crash: every target
	// appears exactly once as a result or a quarantine.
	j, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Complete() {
		t.Fatal("resumed journal incomplete")
	}
	for key, total := range j.Totals {
		seen := make(map[int]int)
		for _, e := range j.Entries[key] {
			seen[e.Ordinal]++
		}
		for ord, n := range seen {
			if n > 1 {
				t.Fatalf("campaign %s ordinal %d journaled %d times", key, ord, n)
			}
		}
		for ord := 0; ord < total; ord++ {
			_, done := seen[ord]
			_, quarantined := j.Quarantine[key][ord]
			if !done && !quarantined {
				t.Fatalf("campaign %s ordinal %d lost across the crash", key, ord)
			}
			if done && quarantined {
				t.Fatalf("campaign %s ordinal %d both completed and quarantined", key, ord)
			}
		}
	}
}

func TestNormalizeSpecRejectsBadInput(t *testing.T) {
	if _, err := normalizeSpec(wire.StudySpec{Campaigns: "AXB"}); err == nil {
		t.Fatal("unknown campaign accepted")
	}
	if _, err := normalizeSpec(wire.StudySpec{FaultModel: "nope"}); err == nil {
		t.Fatal("unknown fault model accepted")
	}
	spec, err := normalizeSpec(wire.StudySpec{Campaigns: "cab"})
	if err != nil || spec.Campaigns != "CAB" {
		t.Fatalf("normalize: %q, %v", spec.Campaigns, err)
	}
	if spec.Seed == 0 || spec.Scale == 0 || spec.MaxRetries == 0 {
		t.Fatalf("defaults not applied: %+v", spec)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t.TempDir(), testPlan(0))
	ts := httptest.NewServer(newHandler(m))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(`{"Campaigns":"Z"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad campaign got %s", resp.Status)
	}
	resp2, err := http.Get(ts.URL + "/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("missing campaign got %s", resp2.Status)
	}
}
