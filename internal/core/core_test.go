package core

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/inject"
	"repro/internal/kernel"
)

// quickStudy runs a heavily subsampled study for tests.
func quickStudy(t *testing.T) *Study {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxTargetsPerFunc = 6
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	return s
}

func TestQuickStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	s := quickStudy(t)

	t.Logf("\n%s", s.ReportTable1())
	t.Logf("\n%s", s.ReportFigure1())
	t.Logf("\n%s", s.ReportFigure4())
	t.Logf("\n%s", s.ReportFigure6())
	t.Logf("\n%s", s.ReportFigure7())
	t.Logf("\n%s", s.ReportFigure8())
	t.Logf("\n%s", s.ReportTable5())

	// Campaign function counts mirror the paper's ordering:
	// A targets the core set; B and C extend to all branchy functions.
	if len(s.FuncsFor[inject.CampaignA]) == 0 {
		t.Fatal("campaign A has no functions")
	}
	if len(s.FuncsFor[inject.CampaignB]) < len(s.FuncsFor[inject.CampaignA]) {
		t.Errorf("B functions (%d) < A functions (%d)",
			len(s.FuncsFor[inject.CampaignB]), len(s.FuncsFor[inject.CampaignA]))
	}

	for _, c := range s.Cfg.Campaigns {
		results := s.Results(c)
		if len(results) == 0 {
			t.Fatalf("campaign %v produced no results", c)
		}
		rows := analysis.OutcomeTable(results)
		total := rows[len(rows)-1]
		if total.Subsystem != "Total" {
			t.Fatalf("missing total row")
		}
		if total.Activated == 0 {
			t.Errorf("campaign %v: no activated errors", c)
		}
		// Activated = sum of the outcome classes.
		if got := total.NotManifested + total.FailSilence + total.CrashHang(); got != total.Activated {
			t.Errorf("campaign %v: outcomes %d != activated %d", c, got, total.Activated)
		}
	}

	// Shape check: >= 85% of crashes from the four major causes.
	all := s.Set.All()
	causes := analysis.CrashCauses(all)
	if len(causes) == 0 {
		t.Fatal("no crashes at all")
	}
	if share := analysis.MajorCauseShare(causes); share < 0.85 {
		t.Errorf("major causes cover only %.1f%% of crashes", 100*share)
	}

	// Shape check: propagation is bounded (crashes mostly in the
	// faulted subsystem).
	prop := analysis.Propagation(all)
	for sub, row := range prop {
		if row.Total >= 10 && row.PropagationRate() > 0.5 {
			t.Errorf("subsystem %s propagates %.0f%% of crashes", sub, 100*row.PropagationRate())
		}
	}
}

func TestResultSetRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	cfg := DefaultConfig()
	cfg.MaxTargetsPerFunc = 2
	cfg.MaxFuncsPerCampaign = 4
	cfg.Campaigns = []inject.Campaign{inject.CampaignC}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/results.json.gz"
	if err := s.Set.Save(path); err != nil {
		t.Fatal(err)
	}
	rs, err := analysis.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.All()) != len(s.Set.All()) {
		t.Fatalf("round trip lost results: %d vs %d", len(rs.All()), len(s.Set.All()))
	}
	a, b := rs.All(), s.Set.All()
	for i := range a {
		if a[i].Outcome != b[i].Outcome || a[i].Target.InstAddr != b[i].Target.InstAddr {
			t.Fatalf("result %d differs after round trip", i)
		}
	}
}

// TestParallelMatchesSerial: a multi-worker campaign must produce the
// exact same per-target outcomes as a serial run.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	mk := func(workers int) []inject.Result {
		cfg := DefaultConfig()
		cfg.Campaigns = []inject.Campaign{inject.CampaignC}
		cfg.MaxFuncsPerCampaign = 10
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
		return s.Results(inject.CampaignC)
	}
	serial := mk(1)
	parallel := mk(4)
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Outcome != b.Outcome || a.Activated != b.Activated ||
			a.Latency != b.Latency || a.Severity != b.Severity ||
			a.CrashSub != b.CrashSub {
			t.Fatalf("target %d differs:\nserial:   %+v\nparallel: %+v", i, a, b)
		}
	}
}

// TestSharedProgramUnchanged: every boot in a process shares one
// linked kernel program. After a study's runs, and an assertion-free
// runner's, it must still equal a fresh assembly: nothing writes it.
func TestSharedProgramUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	cfg := DefaultConfig()
	cfg.MaxFuncsPerCampaign = 3
	cfg.MaxTargetsPerFunc = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	ablated, err := inject.NewRunnerWithOptions(s.ws, inject.RunnerOptions{DisableAssertions: true})
	if err != nil {
		t.Fatal(err)
	}
	targets, err := s.Targets(inject.CampaignC)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		if _, hf := ablated.RunTarget(inject.CampaignC, tg); hf != nil {
			t.Fatal(hf)
		}
	}
	if ablated.M.Prog != s.Runner.M.Prog {
		t.Fatal("the runners' boots linked separate programs")
	}
	fresh, err := kernel.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Runner.M.Prog, fresh) {
		t.Fatal("the shared program changed")
	}
}
