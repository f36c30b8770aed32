package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/inject"
	"repro/internal/journal"
	"repro/internal/kernel"
)

// countingSink counts deliveries and optionally raises a cancel flag
// after a fixed number of Puts — simulating a SIGINT mid-campaign.
type countingSink struct {
	inner       ResultSink
	puts        atomic.Int32
	cancelAfter int32
	cancel      *atomic.Bool
}

func (cs *countingSink) BeginCampaign(c inject.Campaign, total int) error {
	if cs.inner != nil {
		return cs.inner.BeginCampaign(c, total)
	}
	return nil
}

func (cs *countingSink) Quarantine(c inject.Campaign, worker, ordinal int, hf inject.HarnessFault) error {
	if cs.inner != nil {
		return cs.inner.Quarantine(c, worker, ordinal, hf)
	}
	return nil
}

func (cs *countingSink) Put(c inject.Campaign, worker, ordinal, total int, res inject.Result) error {
	if cs.inner != nil {
		if err := cs.inner.Put(c, worker, ordinal, total, res); err != nil {
			return err
		}
	}
	if n := cs.puts.Add(1); cs.cancel != nil && n == cs.cancelAfter {
		cs.cancel.Store(true)
	}
	return nil
}

func resumeTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Campaigns = []inject.Campaign{inject.CampaignC}
	cfg.MaxFuncsPerCampaign = 6
	cfg.MaxTargetsPerFunc = 2
	return cfg
}

func journalHeader(cfg Config) journal.Header {
	return journal.Header{
		Version:             journal.Version,
		Seed:                cfg.Seed,
		Scale:               cfg.Scale,
		Campaigns:           "C",
		MaxTargetsPerFunc:   cfg.MaxTargetsPerFunc,
		MaxFuncsPerCampaign: cfg.MaxFuncsPerCampaign,
	}
}

func saveBytes(t *testing.T, s *Study, path string) []byte {
	t.Helper()
	if err := s.Set.Save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInterruptResumeEquivalence is the durability acceptance test: a
// campaign cancelled mid-run with its results journaled, then resumed
// from that journal, must produce a byte-identical saved ResultSet to
// an uninterrupted run — and so must the set reconstructed from the
// finished journal alone.
func TestInterruptResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	dir := t.TempDir()

	// Reference: uninterrupted run.
	ref, err := New(resumeTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, ref, filepath.Join(dir, "ref.json.gz"))
	total := len(ref.Results(inject.CampaignC))
	if total < 8 {
		t.Fatalf("test campaign too small: %d targets", total)
	}

	// Interrupted run: cancel raised after 5 journaled results.
	jpath := filepath.Join(dir, "journal")
	cfg := resumeTestConfig()
	jw, err := journal.Create(jpath, journalHeader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var cancel atomic.Bool
	cfg.Cancel = &cancel
	cfg.Sink = &countingSink{inner: jw, cancelAfter: 5, cancel: &cancel}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("RunAll = %v, want ErrCancelled", err)
	}
	if err := jw.Close(nil); err != nil {
		t.Fatal(err)
	}

	// Resume from the journal.
	jw2, j, err := journal.OpenAppend(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.CompletedCount(); got != 5 {
		t.Fatalf("journal holds %d results, want 5", got)
	}
	cfg2 := resumeTestConfig()
	cfg2.SkipCompleted = j.Completed()
	resumed := &countingSink{inner: jw2}
	cfg2.Sink = resumed
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := jw2.Close(nil); err != nil {
		t.Fatal(err)
	}
	if got := int(resumed.puts.Load()); got != total-5 {
		t.Fatalf("resume re-ran %d targets, want %d", got, total-5)
	}

	got := saveBytes(t, s2, filepath.Join(dir, "resumed.json.gz"))
	if !equalBytes(want, got) {
		t.Fatal("resumed ResultSet differs from uninterrupted run")
	}

	// The journal alone reconstructs the same set.
	j2, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Complete() {
		t.Fatal("finished journal not complete")
	}
	rs := j2.ResultSet()
	jr := filepath.Join(dir, "from-journal.json.gz")
	if err := rs.Save(jr); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(jr)
	if err != nil {
		t.Fatal(err)
	}
	if !equalBytes(want, b) {
		t.Fatal("journal-reconstructed ResultSet differs from uninterrupted run")
	}
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelCancelDrains: cancelling a parallel campaign returns
// ErrCancelled and every result delivered to the sink before the stop
// is resumable.
func TestParallelCancelDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal")
	cfg := resumeTestConfig()
	cfg.Workers = 3
	jw, err := journal.Create(jpath, journalHeader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var cancel atomic.Bool
	cfg.Cancel = &cancel
	cfg.Sink = &countingSink{inner: jw, cancelAfter: 4, cancel: &cancel}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("RunAll = %v, want ErrCancelled", err)
	}
	if err := jw.Close(nil); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// At least the 4 pre-cancel results are journaled (in-flight runs
	// drain too, so there may be a few more).
	if got := j.CompletedCount(); got < 4 {
		t.Fatalf("journal holds %d results, want >= 4", got)
	}

	// And the resumed parallel run completes the campaign.
	jw2, j2, err := journal.OpenAppend(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := resumeTestConfig()
	cfg2.Workers = 3
	cfg2.SkipCompleted = j2.Completed()
	cfg2.Sink = jw2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.RunAll(); err != nil {
		t.Fatal(err)
	}
	if err := jw2.Close(nil); err != nil {
		t.Fatal(err)
	}
	jf, err := journal.Read(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !jf.Complete() {
		t.Fatal("resumed parallel journal incomplete")
	}
}

// TestWorkerBootFailureAborts: when a parallel worker fails to boot
// its machine, the surviving workers must stop promptly instead of
// executing the whole doomed campaign.
func TestWorkerBootFailureAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	old := newRunner
	newRunner = func(ws []kernel.Workload, opts inject.RunnerOptions) (*inject.Runner, error) {
		return nil, errors.New("boot failed (test)")
	}
	defer func() { newRunner = old }()

	cfg := DefaultConfig()
	cfg.Campaigns = []inject.Campaign{inject.CampaignC}
	cfg.Workers = 4
	sink := &countingSink{}
	cfg.Sink = sink
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := s.Targets(inject.CampaignC)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := s.RunCampaign(inject.CampaignC)
	if runErr == nil || !strings.Contains(runErr.Error(), "boot failed (test)") {
		t.Fatalf("RunCampaign = %v", runErr)
	}
	// The shared-runner worker must have aborted long before finishing
	// the campaign on its own (with the pre-injection boot barrier it
	// never starts at all).
	if got := int(sink.puts.Load()); got >= len(targets)/2 {
		t.Fatalf("survivors ran %d of %d targets after sibling boot failure", got, len(targets))
	}
}

// TestParallelFinalProgress: the last progress update must fire with
// done == total under every executor shape, also when total is not a
// multiple of 64 (the bug that left kinject's status line
// unterminated).
func TestParallelFinalProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	for _, sh := range execShapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := resumeTestConfig()
			var mu sync.Mutex
			lastDone, lastTotal := -1, -1
			cfg.Progress = func(c inject.Campaign, fn string, done, total int) {
				mu.Lock()
				lastDone, lastTotal = done, total
				mu.Unlock()
			}
			s, _ := newShapeStudy(t, cfg, sh, nil)
			targets, err := s.Targets(inject.CampaignC)
			if err != nil {
				t.Fatal(err)
			}
			total := len(targets)
			if _, err := s.RunCampaign(inject.CampaignC); err != nil {
				t.Fatal(err)
			}
			if total%64 == 0 {
				t.Fatalf("test needs a total that is not a multiple of 64, got %d", total)
			}
			mu.Lock()
			defer mu.Unlock()
			if lastDone != total || lastTotal != total {
				t.Fatalf("final progress = %d/%d, want %d/%d", lastDone, lastTotal, total, total)
			}
		})
	}
}
