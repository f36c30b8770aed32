package inject

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/unixbench"
)

// breakpointFires runs r's golden workload from its pristine snapshot
// with an execute breakpoint at pc that changes nothing, and reports
// whether it fired and at which cycle.
func breakpointFires(r *Runner, pc uint32) (fired bool, cycle uint64) {
	m := r.M
	m.Restore(r.snap)
	m.CPU.OnBreakpoint = func(c *cpu.CPU, dr int) {
		fired, cycle = true, c.Cycles
		c.ClearBreakpoint(dr)
	}
	m.CPU.SetBreakpoint(0, pc)
	m.RunWorkloads(r.Workloads, r.Budget)
	m.CPU.OnBreakpoint = nil
	m.CPU.ClearBreakpoint(0)
	return fired, cycle
}

// TestCoverageMatchesBreakpoints: the golden run's coverage of a PC
// must be exactly whether an execute breakpoint there fires on a
// NoCheckpoint runner, and its first-start cycle the cycle it fires at,
// at every instruction start of a function the workload never runs
// (cpu_idle), two hot ones, and one whose error paths the workload
// leaves mostly unexplored (open_namei).
func TestCoverageMatchesBreakpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("one golden-length run per instruction")
	}
	ckpt, ref := newRunnersT(t)
	if ref.cov != nil {
		t.Fatal("a NoCheckpoint runner recorded coverage")
	}
	for _, name := range []string{"cpu_idle", "do_generic_file_read", "schedule", "open_namei"} {
		fn, ok := ckpt.M.Prog.FuncByName(name)
		if !ok {
			t.Fatalf("no function %s", name)
		}
		_, addrs, err := decodeFunc(ckpt.M.Prog, fn)
		if err != nil {
			t.Fatal(err)
		}
		reached := 0
		for _, pc := range addrs {
			_, got, known := ckpt.cov.FirstStart(pc)
			if !known {
				t.Fatalf("%s+%#x: coverage unknown", name, pc-fn.Addr)
			}
			fired, at := breakpointFires(ref, pc)
			if got != fired {
				t.Errorf("%s+%#x: coverage says reached=%v, the breakpoint fired=%v", name, pc-fn.Addr, got, fired)
			}
			if first, _, _ := ckpt.cov.FirstStart(pc); got && first != at {
				t.Errorf("%s+%#x: first start at cycle %d, the breakpoint fired at %d", name, pc-fn.Addr, first, at)
			}
			if got {
				reached++
			}
		}
		t.Logf("%s: %d of %d instruction starts reached", name, reached, len(addrs))
		if name == "cpu_idle" && reached != 0 || name != "cpu_idle" && (reached == 0 || reached == len(addrs)) {
			t.Errorf("%s: %d of %d reached; the cases no longer cover both answers", name, reached, len(addrs))
		}
	}
}

// TestPointRecordRunOffGoldenLogDiverges: a point-model record run
// whose machine ops leave the golden log is replay-diverged, never a
// Not Activated result. With no workload, its first top-level kernel
// call is not the golden run's, so the kernel's op verification fails
// it before its breakpoint could fire.
func TestPointRecordRunOffGoldenLogDiverges(t *testing.T) {
	ckpt, _ := newRunnersT(t)
	fn, _ := ckpt.M.Prog.FuncByName("do_generic_file_read")
	if _, reached, _ := ckpt.cov.FirstStart(fn.Addr); !reached {
		t.Fatal("golden run never entered do_generic_file_read")
	}
	ckpt.Workloads = nil // the record run now executes no workload
	_, hf := ckpt.RunTarget(CampaignA, Target{Func: fn, InstAddr: fn.Addr, InstLen: 1, Bit: 1})
	if hf == nil || hf.Kind != FaultReplayDiverged {
		t.Fatalf("fault = %v, want %s", hf, FaultReplayDiverged)
	}
}

// flagCombo is the combination of the five arithmetic flags in fl, bit
// k of a cpu.FlagCombos: CF, PF, ZF, SF and OF are bits 0 to 4 of k.
func flagCombo(fl uint32) cpu.FlagCombos {
	k := 0
	for i, f := range []uint32{cpu.FlagCF, cpu.FlagPF, cpu.FlagZF, cpu.FlagSF, cpu.FlagOF} {
		if fl&f != 0 {
			k |= 1 << i
		}
	}
	return 1 << k
}

// branchCombos runs r's golden workload from its pristine snapshot
// once per four PCs, with an execute breakpoint left armed at each, and
// returns the flag combinations every PC's hits saw.
func branchCombos(r *Runner, pcs []uint32) map[uint32]cpu.FlagCombos {
	seen := make(map[uint32]cpu.FlagCombos)
	m := r.M
	m.CPU.OnBreakpoint = func(c *cpu.CPU, dr int) { seen[c.DR[dr]] |= flagCombo(c.Eflags) }
	for len(pcs) > 0 {
		n := min(len(pcs), len(m.CPU.DR))
		m.Restore(r.snap)
		for dr, pc := range pcs[:n] {
			m.CPU.SetBreakpoint(dr, pc)
		}
		m.RunWorkloads(r.Workloads, r.Budget)
		for dr := range n {
			m.CPU.ClearBreakpoint(dr)
		}
		pcs = pcs[n:]
	}
	m.CPU.OnBreakpoint = nil
	return seen
}

// TestBranchSummaryMatchesBreakpoints: the golden run's branch summary
// at a jcc must be exactly the set of flag combinations an execute
// breakpoint left armed there sees on a NoCheckpoint runner, at every
// jcc of three hot functions and of one whose error paths the workload
// leaves mostly unexplored (open_namei). At every instruction of a
// function the workload never runs (cpu_idle), both must be empty.
func TestBranchSummaryMatchesBreakpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("one golden-length run per four branches")
	}
	ckpt, ref := newRunnersT(t)
	unreached := 0
	for _, name := range []string{"cpu_idle", "schedule", "do_generic_file_read", "open_namei", "link_path_walk"} {
		fn, ok := ckpt.M.Prog.FuncByName(name)
		if !ok {
			t.Fatalf("no function %s", name)
		}
		insts, addrs, err := decodeFunc(ckpt.M.Prog, fn)
		if err != nil {
			t.Fatal(err)
		}
		var pcs []uint32
		for i := range insts {
			if name == "cpu_idle" || insts[i].IsCondBranch() {
				pcs = append(pcs, addrs[i])
			}
		}
		seen := branchCombos(ref, pcs)
		reached, several := 0, 0
		for _, pc := range pcs {
			got := ckpt.cov.Branch(pc)
			if got != seen[pc] {
				t.Errorf("%s+%#x: golden summary %#x, the breakpoint saw %#x", name, pc-fn.Addr, got, seen[pc])
			}
			if got != 0 {
				reached++
			}
			if got&(got-1) != 0 {
				several++
			}
		}
		t.Logf("%s: %d of %d armed PCs reached, %d with several flag combinations", name, reached, len(pcs), several)
		if name == "cpu_idle" {
			if reached != 0 || len(pcs) == 0 {
				t.Errorf("cpu_idle: %d of %d PCs reached; the never-run case is gone", reached, len(pcs))
			}
			continue
		}
		if reached == 0 || several == 0 {
			t.Errorf("%s: %d of %d reached, %d with several combinations; the cases no longer cover every answer", name, reached, len(pcs), several)
		}
		unreached += len(pcs) - reached
	}
	if unreached == 0 {
		t.Error("every armed jcc was reached; no unreached branch is checked")
	}
}

// TestTextReadDropsBranchSummary: a golden run that reads kernel text as
// data leaves the runner no branch summary, so a target that would mask
// its branch runs instead. Here the workload logs the very text word the
// target flips, after the target's PC first runs, so its true outcome
// is a Fail Silence Violation, and a masked answer would be wrong.
func TestTextReadDropsBranchSummary(t *testing.T) {
	ckpt, _ := newRunnersT(t)
	if !ckpt.branchSummary {
		t.Fatal("the plain workload's golden run read kernel text as data")
	}
	tg := maskedTarget(t, ckpt, func(Target) bool { return true })

	word := tg.Addr() &^ 3
	ws := unixbench.Suite(1)
	last := ws[len(ws)-1]
	ws[len(ws)-1].Main = func(u *kernel.User) {
		last.Main(u)
		u.Logf("text %#x: %#x", word, u.Peek(word))
	}
	peek, err := NewRunner(ws)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRunnerWithOptions(ws, RunnerOptions{EngineOptions: EngineOptions{NoCheckpoint: true}})
	if err != nil {
		t.Fatal(err)
	}
	if peek.branchSummary {
		t.Fatal("a golden run that reads kernel text kept its branch summary")
	}
	if peek.cov == nil {
		t.Fatal("the runner dropped its coverage; the never-reached answer needs no branch summary")
	}
	got, gf := peek.RunTarget(CampaignB, tg)
	want, wf := ref.RunTarget(CampaignB, tg)
	if gf != nil || wf != nil {
		t.Fatalf("harness faults %v / %v", gf, wf)
	}
	if prov := peek.LastProvenance(); prov == ProvMasked || prov == ProvSynthesized {
		t.Fatalf("%s answered from the golden run (provenance %d) without a branch summary", tg.Describe(), prov)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results differ:\ncheckpoint runner %+v\nfull run          %+v", tg.Describe(), got, want)
	}
	if want.Outcome != OutcomeFailSilence {
		t.Fatalf("%s: outcome %v, want %v: the workload no longer reads the flipped byte after activation", tg.Describe(), want.Outcome, OutcomeFailSilence)
	}
}

// maskedTarget returns the first campaign-B target of schedule or
// link_path_walk that r masks and keep accepts.
func maskedTarget(t *testing.T, r *Runner, keep func(Target) bool) Target {
	t.Helper()
	for _, name := range []string{"schedule", "link_path_walk"} {
		fn, _ := r.M.Prog.FuncByName(name)
		targets, err := EnumerateTargets(r.M.Prog, fn, CampaignB, rand.New(rand.NewSource(2003)))
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range targets {
			if _, prov, ok := r.fromGolden(CampaignB, tg); ok && prov == ProvMasked && keep(tg) {
				return tg
			}
		}
	}
	t.Fatal("no campaign-B target in schedule or link_path_walk masks its branch")
	return Target{}
}

// TestMaskedBranchNeedsItsByteAlone: a corrupted branch is not masked
// when another instruction the golden run started covers its flipped
// byte. One step of the CPU at the flipped byte, with the runner's
// coverage attached, records such a start.
func TestMaskedBranchNeedsItsByteAlone(t *testing.T) {
	r, err := NewRunner(unixbench.Suite(1))
	if err != nil {
		t.Fatal(err)
	}
	tg := maskedTarget(t, r, func(tg Target) bool { return tg.ByteOff > 0 })
	c := r.M.CPU
	c.Coverage, c.EIP = r.cov, tg.Addr()
	c.Step() // its outcome does not matter: the start is recorded first
	c.Coverage = nil
	r.M.Restore(r.snap)
	if _, reached, _ := r.cov.FirstStart(tg.Addr()); !reached {
		t.Fatalf("no start recorded at %#x", tg.Addr())
	}
	if _, prov, ok := r.fromGolden(CampaignB, tg); ok && prov == ProvMasked {
		t.Fatalf("%s is masked though an instruction started at its flipped byte %#x", tg.Describe(), tg.Addr())
	}
}
