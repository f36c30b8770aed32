package core

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/inject"
	"repro/internal/journal"
	"repro/internal/kernel"
	"repro/internal/obs"
)

// poisonHook panics whenever the given target is attempted, counting
// the attempts — a deterministic stand-in for a harness bug tied to
// one injection.
func poisonHook(poison inject.Target, calls *atomic.Int32) func(inject.Campaign, inject.Target) {
	return func(c inject.Campaign, tg inject.Target) {
		if tg == poison {
			calls.Add(1)
			panic("poison target (test)")
		}
	}
}

// TestHarnessPanicRetriesThenSucceeds: a transient panic on one target
// is retried on a freshly booted runner and the campaign's saved
// result set comes out byte-identical to an undisturbed run, under
// every executor shape.
func TestHarnessPanicRetriesThenSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	dir := t.TempDir()

	ref, err := New(resumeTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, ref, filepath.Join(dir, "ref.json.gz"))

	for _, sh := range execShapes {
		t.Run(sh.name, func(t *testing.T) {
			metrics := obs.New(sh.workers)
			s, exec := newShapeStudy(t, resumeTestConfig(), sh, metrics)
			targets, err := s.Targets(inject.CampaignC)
			if err != nil {
				t.Fatal(err)
			}
			poison := targets[5]
			var calls atomic.Int32
			exec.Runner.HookBeforeRun = func(c inject.Campaign, tg inject.Target) {
				if tg == poison && calls.Add(1) == 1 {
					panic("transient harness bug (test)")
				}
			}
			if err := s.RunAll(); err != nil {
				t.Fatalf("campaign died on a recoverable panic: %v", err)
			}
			if calls.Load() < 2 {
				t.Fatalf("poison target attempted %d times, want a retry", calls.Load())
			}
			snap := metrics.Snapshot()
			if snap.HarnessFaults["panic"] != 1 || snap.Retries < 1 || snap.RunnerReboots < 1 {
				t.Fatalf("metrics: faults=%v retries=%d reboots=%d",
					snap.HarnessFaults, snap.Retries, snap.RunnerReboots)
			}

			got := saveBytes(t, s, filepath.Join(dir, sh.name+".json.gz"))
			if !equalBytes(want, got) {
				t.Fatal("result set after panic+retry differs from undisturbed run")
			}
		})
	}
}

// expectedWithout builds the result set an undisturbed run would have
// produced if ordinal ord (holding target poison) had been quarantined
// too: poison's result dropped, its ordinal recorded.
func expectedWithout(ref *Study, key string, poison inject.Target, ord int) *analysis.ResultSet {
	rs := &analysis.ResultSet{
		Version: analysis.SchemaVersion,
		Seed:    ref.Cfg.Seed,
		Scale:   ref.Cfg.Scale,
		Results: make(map[string][]inject.Result),
	}
	for k, results := range ref.Set.Results {
		kept := make([]inject.Result, 0, len(results))
		for _, r := range results {
			if k == key && r.Target == poison {
				continue
			}
			kept = append(kept, r)
		}
		rs.Results[k] = kept
	}
	quar := append([]int{}, ref.Set.Quarantined[key]...)
	quar = append(quar, ord)
	sort.Ints(quar)
	rs.Quarantined = map[string][]int{key: quar}
	return rs
}

// TestQuarantineResumeRoundTrip is the fault-tolerance acceptance
// test: a target that panics on every attempt is retried, quarantined
// and journaled; the campaign is interrupted; the resumed run skips
// the quarantined ordinal without re-running it; and the final saved
// ResultSet is byte-identical to an undisturbed run minus that ordinal
// (which the set explicitly lists as quarantined).
func TestQuarantineResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	dir := t.TempDir()

	ref, err := New(resumeTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunAll(); err != nil {
		t.Fatal(err)
	}
	refTargets, err := ref.Targets(inject.CampaignC)
	if err != nil {
		t.Fatal(err)
	}
	const poisonOrd = 5
	poison := refTargets[poisonOrd]
	wantSet := expectedWithout(ref, "C", poison, poisonOrd)
	wpath := filepath.Join(dir, "want.json.gz")
	if err := wantSet.Save(wpath); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(wpath)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the poison target panics on every attempt and
	// gets quarantined; cancel fires after 6 journaled results.
	jpath := filepath.Join(dir, "journal")
	cfg := resumeTestConfig()
	jw, err := journal.Create(jpath, journalHeader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var cancel atomic.Bool
	cfg.Cancel = &cancel
	cfg.Sink = &countingSink{inner: jw, cancelAfter: 6, cancel: &cancel}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	s.Runner.HookBeforeRun = poisonHook(poison, &calls)
	if err := s.RunAll(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("RunAll = %v, want ErrCancelled", err)
	}
	if err := jw.Close(nil); err != nil {
		t.Fatal(err)
	}
	if calls.Load() < 2 {
		t.Fatalf("poison target attempted %d times before quarantine", calls.Load())
	}

	j, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !j.QuarantinedOrdinals()["C"][poisonOrd] {
		t.Fatalf("poison ordinal not quarantined in journal: %v", j.QuarantinedOrdinals())
	}

	// Resume with the harness bug still present: the quarantined
	// ordinal must be skipped, not retried.
	jw2, j2, err := journal.OpenAppend(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := resumeTestConfig()
	cfg2.SkipCompleted = j2.Completed()
	cfg2.Quarantined = j2.QuarantinedOrdinals()
	cfg2.Sink = jw2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	var resumedCalls atomic.Int32
	s2.Runner.HookBeforeRun = poisonHook(poison, &resumedCalls)
	if err := s2.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := jw2.Close(nil); err != nil {
		t.Fatal(err)
	}
	if n := resumedCalls.Load(); n != 0 {
		t.Fatalf("resume re-ran the quarantined target %d times", n)
	}

	got := saveBytes(t, s2, filepath.Join(dir, "resumed.json.gz"))
	if !equalBytes(want, got) {
		t.Fatal("resumed ResultSet differs from undisturbed run minus the quarantined ordinal")
	}

	// The finished journal reconstructs the same set, and reports it.
	jf, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !jf.Complete() {
		t.Fatal("finished journal with quarantine not complete")
	}
	rs := jf.ResultSet()
	rpath := filepath.Join(dir, "from-journal.json.gz")
	if err := rs.Save(rpath); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	if !equalBytes(want, b) {
		t.Fatal("journal-reconstructed ResultSet differs")
	}
	if rpt := analysis.RenderAll(rs); !strings.Contains(rpt, "quarantined") {
		t.Fatal("report does not mention quarantined targets")
	}
}

// TestStallQuarantinesTarget: a harness stall (hook sleeping past the
// wall-clock deadline, standing in for a Go-level livelock) leaves the
// campaign running and quarantines the target as a timeout fault.
func TestStallQuarantinesTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	cfg := resumeTestConfig()
	cfg.RunTimeout = 3 * time.Second
	cfg.MaxRetries = -1 // one attempt is slow enough
	metrics := obs.New(1)
	cfg.Metrics = metrics
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := s.Targets(inject.CampaignC)
	if err != nil {
		t.Fatal(err)
	}
	poison := targets[5]
	s.Runner.HookBeforeRun = func(c inject.Campaign, tg inject.Target) {
		if tg == poison {
			time.Sleep(4 * time.Second)
		}
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("campaign died on a stalled run: %v", err)
	}
	found := false
	for _, ord := range s.Set.Quarantined["C"] {
		if ord == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stalled target not quarantined: %v", s.Set.Quarantined)
	}
	if snap := metrics.Snapshot(); snap.HarnessFaults["timeout"] < 1 {
		t.Fatalf("no timeout fault recorded: %v", snap.HarnessFaults)
	}
}

// TestGoldenMismatchAborts: a parallel worker whose golden run
// diverges from worker 0's must abort the campaign with a diagnostic
// before any result is journaled.
func TestGoldenMismatchAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	old := newRunner
	newRunner = func(ws []kernel.Workload, opts inject.RunnerOptions) (*inject.Runner, error) {
		// Boot with a truncated workload list: the golden trace (and
		// disk image) of this machine cannot match worker 0's.
		return inject.NewRunnerWithOptions(ws[:1], opts)
	}
	defer func() { newRunner = old }()

	cfg := resumeTestConfig()
	cfg.Workers = 2
	sink := &countingSink{}
	cfg.Sink = sink
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := s.RunCampaign(inject.CampaignC)
	if runErr == nil || !strings.Contains(runErr.Error(), "golden cross-validation failed") {
		t.Fatalf("RunCampaign = %v, want golden cross-validation failure", runErr)
	}
	if got := sink.puts.Load(); got != 0 {
		t.Fatalf("%d results journaled before the mismatch aborted the campaign", got)
	}
}
