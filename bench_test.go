package repro

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its experiment's data (a subsampled study,
// shared across benchmarks and built on first use) and reports the
// figures the paper reports as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced results next to the timing. Absolute numbers
// differ from the paper (its substrate was a physical P4 running Linux
// 2.4.19; ours is a simulator), but the shape — who dominates, by
// roughly what factor, where the orderings fall — is the reproduction
// target. EXPERIMENTS.md records the comparison.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dump"
	"repro/internal/inject"
	"repro/internal/kernel"
	"repro/internal/kernprof"
	"repro/internal/unixbench"
)

var (
	studyOnce sync.Once
	studyVal  *core.Study
	studyErr  error
)

// study builds the shared subsampled study (about 1,900 injections
// across the three campaigns).
func study(b *testing.B) *core.Study {
	b.Helper()
	studyOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.MaxTargetsPerFunc = 8
		studyVal, studyErr = core.New(cfg)
		if studyErr == nil {
			studyErr = studyVal.RunAll()
		}
	})
	if studyErr != nil {
		b.Fatalf("study: %v", studyErr)
	}
	return studyVal
}

func campaignResults(b *testing.B, c inject.Campaign) []inject.Result {
	s := study(b)
	rs := s.Results(c)
	if len(rs) == 0 {
		b.Fatalf("campaign %v has no results", c)
	}
	return rs
}

// BenchmarkFigure1SubsystemSizes regenerates the kernel subsystem
// size breakdown (Figure 1).
func BenchmarkFigure1SubsystemSizes(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		prog, err := kernel.Assemble()
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, sub := range analysis.Subsystems {
			total += len(prog.Sections[sub].Code)
		}
	}
	b.ReportMetric(float64(total), "text_bytes")
}

// BenchmarkTable1Profile regenerates the kernel profile and the
// Table 1 function distribution.
func BenchmarkTable1Profile(b *testing.B) {
	var coreN, profiled int
	for i := 0; i < b.N; i++ {
		p, err := kernprof.Collect(unixbench.Suite(1), 1<<40, 0)
		if err != nil {
			b.Fatal(err)
		}
		coreN = len(p.TopCovering(0.95))
		profiled = len(p.Funcs)
	}
	b.ReportMetric(float64(profiled), "profiled_funcs")
	b.ReportMetric(float64(coreN), "core95_funcs")
}

func reportOutcomes(b *testing.B, results []inject.Result) {
	rows := analysis.OutcomeTable(results)
	total := rows[len(rows)-1]
	b.ReportMetric(float64(total.Injected), "injected")
	b.ReportMetric(100*float64(total.Activated)/float64(total.Injected), "activated_pct")
	if total.Activated > 0 {
		b.ReportMetric(100*float64(total.NotManifested)/float64(total.Activated), "not_manifested_pct")
		b.ReportMetric(100*float64(total.FailSilence)/float64(total.Activated), "fail_silence_pct")
		b.ReportMetric(100*float64(total.CrashHang())/float64(total.Activated), "crash_hang_pct")
	}
}

// BenchmarkFigure4CampaignA regenerates the campaign-A outcome table.
func BenchmarkFigure4CampaignA(b *testing.B) {
	rs := campaignResults(b, inject.CampaignA)
	for i := 0; i < b.N; i++ {
		_ = analysis.OutcomeTable(rs)
	}
	reportOutcomes(b, rs)
}

// BenchmarkFigure4CampaignB regenerates the campaign-B outcome table.
func BenchmarkFigure4CampaignB(b *testing.B) {
	rs := campaignResults(b, inject.CampaignB)
	for i := 0; i < b.N; i++ {
		_ = analysis.OutcomeTable(rs)
	}
	reportOutcomes(b, rs)
}

// BenchmarkFigure4CampaignC regenerates the campaign-C outcome table.
func BenchmarkFigure4CampaignC(b *testing.B) {
	rs := campaignResults(b, inject.CampaignC)
	for i := 0; i < b.N; i++ {
		_ = analysis.OutcomeTable(rs)
	}
	reportOutcomes(b, rs)
}

// BenchmarkFigure5CaseStudy regenerates the do_generic_file_read
// case study: a single-bit error in the end_index computation.
func BenchmarkFigure5CaseStudy(b *testing.B) {
	runner, err := inject.NewRunner(unixbench.Suite(1))
	if err != nil {
		b.Fatal(err)
	}
	fn, ok := runner.M.Prog.FuncByName("do_generic_file_read")
	if !ok {
		b.Fatal("no do_generic_file_read")
	}
	rng := rand.New(rand.NewSource(9))
	targets, err := inject.EnumerateTargets(runner.M.Prog, fn, inject.CampaignA, rng)
	if err != nil {
		b.Fatal(err)
	}
	var manifested int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		manifested = 0
		for k := 0; k < 24 && k < len(targets); k++ {
			res, _ := runner.RunTarget(inject.CampaignA, targets[k])
			if res.Activated && res.Outcome != inject.OutcomeNotManifested {
				manifested++
			}
		}
	}
	b.ReportMetric(float64(manifested), "manifested_of_24")
}

// BenchmarkFigure6CrashCauses regenerates the crash-cause
// distributions and reports the four-major-cause share.
func BenchmarkFigure6CrashCauses(b *testing.B) {
	s := study(b)
	all := s.Set.All()
	var share float64
	for i := 0; i < b.N; i++ {
		share = analysis.MajorCauseShare(analysis.CrashCauses(all))
	}
	b.ReportMetric(100*share, "major_cause_pct")
	// Per-campaign invalid-opcode share (the paper: C is dominated by
	// invalid opcode from kernel assertions).
	for _, c := range []inject.Campaign{inject.CampaignA, inject.CampaignC} {
		causes := analysis.CrashCauses(s.Results(c))
		total, inv := 0, 0
		for _, cc := range causes {
			total += cc.Count
			if cc.Cause == dump.CauseInvalidOpcode {
				inv = cc.Count
			}
		}
		if total > 0 {
			name := "A_invalid_opcode_pct"
			if c == inject.CampaignC {
				name = "C_invalid_opcode_pct"
			}
			b.ReportMetric(100*float64(inv)/float64(total), name)
		}
	}
}

// BenchmarkFigure7CrashLatency regenerates the latency histograms and
// reports the within-10-cycles share per campaign.
func BenchmarkFigure7CrashLatency(b *testing.B) {
	s := study(b)
	var fast float64
	for i := 0; i < b.N; i++ {
		d := analysis.Latency(s.Set.All())["all"]
		fast = d.Share(0)
	}
	b.ReportMetric(100*fast, "lt10cycles_pct")
	for _, c := range []inject.Campaign{inject.CampaignA, inject.CampaignC} {
		d := analysis.Latency(s.Results(c))["all"]
		if d == nil || d.Total == 0 {
			continue
		}
		name := "A_lt10_pct"
		if c == inject.CampaignC {
			name = "C_lt10_pct"
		}
		b.ReportMetric(100*d.Share(0), name)
	}
}

// BenchmarkFigure8Propagation regenerates the error-propagation
// analysis and reports the fs and kernel propagation rates.
func BenchmarkFigure8Propagation(b *testing.B) {
	s := study(b)
	all := s.Set.All()
	var prop map[string]*analysis.PropRow
	for i := 0; i < b.N; i++ {
		prop = analysis.Propagation(all)
	}
	for _, sub := range []string{"fs", "kernel"} {
		if row := prop[sub]; row != nil && row.Total > 0 {
			b.ReportMetric(100*row.PropagationRate(), sub+"_propagation_pct")
		}
	}
}

// BenchmarkTable5SevereCrashes regenerates the severity analysis.
func BenchmarkTable5SevereCrashes(b *testing.B) {
	s := study(b)
	all := s.Set.All()
	var most []inject.Result
	var sev map[inject.Severity]int
	for i := 0; i < b.N; i++ {
		most = analysis.MostSevere(all)
		sev = analysis.SeverityCounts(all)
	}
	b.ReportMetric(float64(len(most)), "most_severe")
	b.ReportMetric(float64(sev[inject.SeveritySevere]), "severe")
	b.ReportMetric(float64(sev[inject.SeverityNormal]), "normal")
}

// BenchmarkTable6NotManifested regenerates the campaign-B
// not-manifested branch case studies.
func BenchmarkTable6NotManifested(b *testing.B) {
	rs := campaignResults(b, inject.CampaignB)
	var cases int
	for i := 0; i < b.N; i++ {
		cases = len(analysis.NotManifestedBranchCases(rs, 1<<30))
	}
	b.ReportMetric(float64(cases), "nm_branch_cases")
}

// BenchmarkTable7CaseStudies regenerates one crash case study per
// major cause.
func BenchmarkTable7CaseStudies(b *testing.B) {
	s := study(b)
	all := s.Set.All()
	var covered int
	for i := 0; i < b.N; i++ {
		cases := analysis.CrashCasesByCause(all)
		covered = 0
		for _, c := range dump.MajorCauses {
			if cases[c] != nil {
				covered++
			}
		}
	}
	b.ReportMetric(float64(covered), "major_causes_with_case")
}

// BenchmarkGoldenRun measures the cost of one fault-free benchmark
// pass (the unit of every injection experiment). Checkpointing is
// disabled: with it on, the runner would answer every iteration from
// the golden run's coverage, because cpu_idle is never reached, and
// the benchmark would stop measuring a machine run at all.
func BenchmarkGoldenRun(b *testing.B) {
	runner, err := inject.NewRunnerWithOptions(unixbench.Suite(1), inject.RunnerOptions{EngineOptions: inject.EngineOptions{NoCheckpoint: true}})
	if err != nil {
		b.Fatal(err)
	}
	fn, _ := runner.M.Prog.FuncByName("cpu_idle") // never activated
	t := inject.Target{Func: fn, InstAddr: fn.Addr, InstLen: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := runner.RunTarget(inject.CampaignA, t)
		if res.Outcome != inject.OutcomeNotActivated {
			b.Fatal("unexpected activation")
		}
	}
}

// BenchmarkInjectionRun measures one complete activated injection
// experiment — the unit that the full study repeats ~4,300 times and
// the paper ~35,000 times. With checkpointing (the default), the first
// iteration records a full run and captures a checkpoint at the
// activation PC; every later iteration replays from it, which is the
// steady-state cost of a study whose targets share activation PCs.
func BenchmarkInjectionRun(b *testing.B) {
	benchInjectionRun(b, inject.RunnerOptions{})
}

// BenchmarkInjectionRunFullReplay is the same experiment with
// checkpointing off: every iteration restores the pristine snapshot
// and runs from boot state to outcome (the pre-checkpoint baseline).
func BenchmarkInjectionRunFullReplay(b *testing.B) {
	benchInjectionRun(b, inject.RunnerOptions{EngineOptions: inject.EngineOptions{NoCheckpoint: true}})
}

func benchInjectionRun(b *testing.B, opts inject.RunnerOptions) {
	runner, err := inject.NewRunnerWithOptions(unixbench.Suite(1), opts)
	if err != nil {
		b.Fatal(err)
	}
	fn, ok := runner.M.Prog.FuncByName("do_generic_file_read")
	if !ok {
		b.Fatal("no do_generic_file_read")
	}
	rng := rand.New(rand.NewSource(9))
	targets, err := inject.EnumerateTargets(runner.M.Prog, fn, inject.CampaignA, rng)
	if err != nil {
		b.Fatal(err)
	}
	if len(targets) == 0 {
		b.Fatal("no targets")
	}
	t := targets[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, hf := runner.RunTarget(inject.CampaignA, t)
		if hf != nil {
			b.Fatal(hf)
		}
		if !res.Activated {
			b.Fatal("target not activated")
		}
	}
}

// BenchmarkHangRun measures budget-burning hangs of the sub8 study
// (seed 2003), one of each kind hang fast-forward jumps:
//   - idle, A:17 (verify_area+0x5, byte 2, bit 6), which parks every
//     workload and idles with a 6-tick period until the watchdog fires;
//   - fault-retry, A:19 (verify_area+0x17, byte 1, bit 4), where one
//     instruction keeps faulting at a user address that do_page_fault
//     reports handled, inside one kernel call;
//   - loop, C:31 (schedule+0x52, byte 0, bit 0), a loop in the CPU
//     inside one kernel call.
//
// Each fastforward arm jumps its stretch and fails if no jump happened,
// so a silently disengaged fast path is loud; the reference arms
// simulate every cycle.
func BenchmarkHangRun(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.MaxTargetsPerFunc = 8
	s, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := s.Runner
	for _, h := range []struct {
		name    string
		c       inject.Campaign
		ordinal int
		fn      string
		off     uint32
		byteOff int
		bit     uint8
	}{
		{"idle", inject.CampaignA, 17, "verify_area", 0x5, 2, 6},
		{"fault-retry", inject.CampaignA, 19, "verify_area", 0x17, 1, 4},
		{"loop", inject.CampaignC, 31, "schedule", 0x52, 0, 0},
	} {
		targets, err := s.Targets(h.c)
		if err != nil {
			b.Fatal(err)
		}
		t := targets[h.ordinal]
		if t.Func.Name != h.fn || t.InstAddr != t.Func.Addr+h.off || t.ByteOff != h.byteOff || t.Bit != h.bit {
			b.Fatalf("%v:%d is %s+%#x byte %d bit %d, not %s+%#x byte %d bit %d", h.c, h.ordinal,
				t.Func.Name, t.InstAddr-t.Func.Addr, t.ByteOff, t.Bit, h.fn, h.off, h.byteOff, h.bit)
		}
		for _, arm := range []struct {
			name   string
			golden uint64 // the machine's arming point; 0 never arms
		}{{"fastforward", r.GoldenCycles}, {"reference", 0}} {
			b.Run(h.name+"/"+arm.name, func(b *testing.B) {
				r.M.GoldenCycles = arm.golden
				for i := 0; i < b.N; i++ {
					before := r.M.SkippedCycles()
					res, hf := r.RunTarget(h.c, t)
					if hf != nil {
						b.Fatal(hf)
					}
					if res.Outcome != inject.OutcomeHang {
						b.Fatalf("outcome %v, want a hang", res.Outcome)
					}
					if arm.golden != 0 && r.M.SkippedCycles() == before {
						b.Fatal("hang fast-forward did not jump")
					}
				}
			})
		}
	}
	r.M.GoldenCycles = r.GoldenCycles
}

// BenchmarkAblationAssertions quantifies the paper's §8 proposal
// (strategic assertion placement detects errors before they
// propagate): campaign C against the normal kernel vs. a build with
// every BUG()/ud2 assertion stripped. Metrics: assertion-detected
// (invalid opcode) crash counts and total detected failures in each
// build.
func BenchmarkAblationAssertions(b *testing.B) {
	ws := unixbench.Suite(1)
	fns := []string{
		"getblk", "iput", "brelse", "ext2_find_entry", "pipe_read",
		"do_generic_file_read", "zap_page_range", "wake_up_process",
	}
	run := func(opts inject.RunnerOptions) (invalid, detected int) {
		runner, err := inject.NewRunnerWithOptions(ws, opts)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(21))
		for _, name := range fns {
			fn, ok := runner.M.Prog.FuncByName(name)
			if !ok {
				continue
			}
			targets, err := inject.EnumerateTargets(runner.M.Prog, fn, inject.CampaignC, rng)
			if err != nil {
				b.Fatal(err)
			}
			for _, tg := range targets {
				res, _ := runner.RunTarget(inject.CampaignC, tg)
				if res.Outcome == inject.OutcomeCrash && res.Crash.Cause == dump.CauseInvalidOpcode {
					invalid++
				}
				if res.Outcome == inject.OutcomeCrash || res.Outcome == inject.OutcomeHang {
					detected++
				}
			}
		}
		return
	}
	var invBase, detBase, invAbl, detAbl int
	for i := 0; i < b.N; i++ {
		invBase, detBase = run(inject.RunnerOptions{})
		invAbl, detAbl = run(inject.RunnerOptions{DisableAssertions: true})
	}
	b.ReportMetric(float64(invBase), "assert_detected")
	b.ReportMetric(float64(detBase), "detected_with_asserts")
	b.ReportMetric(float64(invAbl), "assert_detected_ablated")
	b.ReportMetric(float64(detAbl), "detected_without_asserts")
}

// BenchmarkAblationWorkloadScale measures how workload intensity
// drives error activation (the paper chose UnixBench precisely to
// maximize activation): campaign C activation rate at workload scale 1
// vs scale 3.
func BenchmarkAblationWorkloadScale(b *testing.B) {
	activation := func(scale int) float64 {
		runner, err := inject.NewRunner(unixbench.Suite(unixbench.Scale(scale)))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(33))
		activated, total := 0, 0
		for _, fn := range runner.M.Prog.Funcs {
			if fn.Section != "fs" && fn.Section != "mm" {
				continue
			}
			targets, err := inject.EnumerateTargets(runner.M.Prog, fn, inject.CampaignC, rng)
			if err != nil {
				b.Fatal(err)
			}
			for _, tg := range targets {
				res, _ := runner.RunTarget(inject.CampaignC, tg)
				total++
				if res.Activated {
					activated++
				}
			}
		}
		if total == 0 {
			b.Fatal("no targets")
		}
		return 100 * float64(activated) / float64(total)
	}
	var a1, a3 float64
	for i := 0; i < b.N; i++ {
		a1 = activation(1)
		a3 = activation(3)
	}
	b.ReportMetric(a1, "activated_pct_scale1")
	b.ReportMetric(a3, "activated_pct_scale3")
}
