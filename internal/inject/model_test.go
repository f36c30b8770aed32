package inject

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/unixbench"
)

func newModelRunnerT(t *testing.T, m FaultModel) *Runner {
	t.Helper()
	r, err := NewRunnerWithOptions(unixbench.Suite(1), RunnerOptions{Model: m})
	if err != nil {
		t.Fatalf("NewRunnerWithOptions(%s): %v", m.Name(), err)
	}
	return r
}

func enumCtxT(t *testing.T, r *Runner, funcs ...string) EnumContext {
	t.Helper()
	ctx := EnumContext{Prog: r.M.Prog, SyscallCounts: r.GoldenSyscallCounts()}
	for _, name := range funcs {
		fn, ok := r.M.Prog.FuncByName(name)
		if !ok {
			t.Fatalf("no function %q", name)
		}
		ctx.Funcs = append(ctx.Funcs, fn)
	}
	return ctx
}

func TestModelRegistry(t *testing.T) {
	want := []string{ModelBitflip, ModelBurst, ModelRegflip, ModelSyscall, ModelDisk}
	names := ModelNames()
	if len(names) != len(want) {
		t.Fatalf("models: %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("model order: %v, want %v", names, want)
		}
	}
	for _, m := range Models() {
		if m.Describe() == "" {
			t.Fatalf("%s has no description", m.Name())
		}
		if len(m.Campaigns()) == 0 {
			t.Fatalf("%s claims no campaigns", m.Name())
		}
		_, isPoint := m.(PointModel)
		_, isArmed := m.(ArmedModel)
		if isPoint == isArmed {
			t.Fatalf("%s must implement exactly one of PointModel/ArmedModel (point=%v armed=%v)",
				m.Name(), isPoint, isArmed)
		}
		if cs := m.Checkpoint(); !cs.Compatible {
			if cs.Reason == "" {
				t.Fatalf("%s disables checkpointing without a typed reason", m.Name())
			}
			if isPoint {
				t.Fatalf("%s is a PointModel but declares checkpoint-incompatible", m.Name())
			}
		}
	}

	// The empty name is the legacy bitflip default; unknown names fail
	// fast with the full model list.
	m, err := ModelByName("")
	if err != nil || m.Name() != ModelBitflip {
		t.Fatalf("ModelByName(\"\") = %v, %v", m, err)
	}
	if _, err := ModelByName("cosmic-ray"); err == nil {
		t.Fatal("unknown model accepted")
	} else {
		for _, n := range want {
			if !strings.Contains(err.Error(), n) {
				t.Fatalf("unknown-model error misses %q: %v", n, err)
			}
		}
	}
	if ModelTag(ModelBitflip) != "" || ModelTag(ModelSyscall) != ModelSyscall {
		t.Fatal("ModelTag: bitflip must persist as the empty legacy tag")
	}
}

// TestBitflipEnumerationMatchesLegacy pins the refactor invariant that
// makes bitflip studies byte-identical to the pre-model reference: the
// bitflip model's Enumerate must reproduce the original per-function
// EnumerateTargets loop — same rng consumption, same even-spaced
// subsample — exactly.
func TestBitflipEnumerationMatchesLegacy(t *testing.T) {
	prog, err := kernel.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	var funcs []asm.Func
	for _, name := range []string{"do_generic_file_read", "schedule", "sys_read", "__alloc_pages"} {
		fn, ok := prog.FuncByName(name)
		if !ok {
			t.Fatalf("no function %q", name)
		}
		funcs = append(funcs, fn)
	}
	for _, cap := range []int{0, 3} {
		for _, c := range []Campaign{CampaignA, CampaignB, CampaignC} {
			legacyRng := rand.New(rand.NewSource(2003 + int64(c)))
			var legacy []Target
			for _, fn := range funcs {
				ts, err := EnumerateTargets(prog, fn, c, legacyRng)
				if err != nil {
					t.Fatal(err)
				}
				legacy = append(legacy, subsample(ts, cap)...)
			}

			modelRng := rand.New(rand.NewSource(2003 + int64(c)))
			got, err := bitflipModel{}.Enumerate(EnumContext{
				Prog: prog, Funcs: funcs, MaxTargetsPerFunc: cap,
			}, c, modelRng)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(legacy) {
				t.Fatalf("campaign %v cap %d: %d targets, legacy %d", c, cap, len(got), len(legacy))
			}
			for i := range got {
				if got[i] != legacy[i] {
					t.Fatalf("campaign %v cap %d target %d:\n got %+v\nwant %+v", c, cap, i, got[i], legacy[i])
				}
				if got[i].Model != "" {
					t.Fatalf("bitflip target carries model tag %q (breaks legacy byte-identity)", got[i].Model)
				}
			}
		}
	}
}

func TestBitMask(t *testing.T) {
	if m := (Target{Bit: 3}).BitMask(); m != 0b1000 {
		t.Fatalf("single-bit mask = %#b", m)
	}
	if m := (Target{Bit: 2, Width: 3}).BitMask(); m != 0b11100 {
		t.Fatalf("burst mask = %#b", m)
	}
	if m := (Target{Bit: 6, Width: 2}).BitMask(); m != 0b11000000 {
		t.Fatalf("top burst mask = %#b", m)
	}
}

func TestBurstModelEndToEnd(t *testing.T) {
	r := newModelRunnerT(t, burstModel{})
	if off, _ := r.CheckpointDisabled(); off {
		t.Fatal("burst is PC-keyed; checkpointing must stay on")
	}
	rng := rand.New(rand.NewSource(5))
	targets, err := burstModel{}.Enumerate(enumCtxT(t, r, "do_generic_file_read"), CampaignA, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no burst targets in a hot function")
	}
	for _, tg := range targets {
		if tg.Model != ModelBurst {
			t.Fatalf("untagged burst target %+v", tg)
		}
		if tg.Width < 2 || tg.Width > 3 || int(tg.Bit)+tg.Width > 8 {
			t.Fatalf("burst outside byte: bit %d width %d", tg.Bit, tg.Width)
		}
	}
	if len(targets) > 12 {
		targets = targets[:12]
	}
	activated := 0
	for _, tg := range targets {
		res, hf := r.RunTarget(CampaignA, tg)
		if hf != nil {
			t.Fatalf("harness fault: %v", hf)
		}
		if res.Activated {
			activated++
		}
	}
	if activated == 0 {
		t.Fatal("no burst target activated in a hot function")
	}
}

func TestRegflipApply(t *testing.T) {
	r := newModelRunnerT(t, regflipModel{})
	m := r.M

	// Register flip: bit 4 of reg index 2 (1-based).
	before := m.CPU.Regs[1]
	if err := (regflipModel{}).Apply(m, Target{Model: ModelRegflip, Reg: 2, Bit: 4}); err != nil {
		t.Fatal(err)
	}
	if m.CPU.Regs[1] != before^(1<<4) {
		t.Fatalf("reg flip: %#x -> %#x", before, m.CPU.Regs[1])
	}

	// Data-word flip: bit 9 = bit 1 of byte 1 of the global.
	addr, ok := m.Prog.Symbols["jiffies"]
	if !ok {
		t.Fatal("no jiffies symbol")
	}
	raw, err := m.Mem.ReadRaw(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := raw[1] ^ (1 << 1)
	if err := (regflipModel{}).Apply(m, Target{Model: ModelRegflip, DataAddr: addr, Bit: 9}); err != nil {
		t.Fatal(err)
	}
	raw, _ = m.Mem.ReadRaw(addr, 4)
	if raw[1] != want {
		t.Fatalf("data flip: byte = %#x, want %#x", raw[1], want)
	}

	if err := (regflipModel{}).Apply(m, Target{Model: ModelRegflip, Reg: 99}); err == nil {
		t.Fatal("out-of-range register accepted")
	}
}

func TestRegflipModelEndToEnd(t *testing.T) {
	r := newModelRunnerT(t, regflipModel{})
	rng := rand.New(rand.NewSource(5))
	targets, err := regflipModel{}.Enumerate(enumCtxT(t, r, "sys_read"), CampaignA, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no regflip targets")
	}
	sawData := false
	for _, tg := range targets {
		if tg.Reg == 0 && tg.DataAddr != 0 {
			sawData = true
		}
	}
	if !sawData {
		t.Fatal("enumeration produced no data-word targets")
	}
	if len(targets) > 10 {
		targets = targets[:10]
	}
	activated := 0
	for _, tg := range targets {
		res, hf := r.RunTarget(CampaignA, tg)
		if hf != nil {
			t.Fatalf("harness fault on %s: %v", tg.Describe(), hf)
		}
		if res.Activated {
			activated++
		}
	}
	if activated == 0 {
		t.Fatal("no regflip target activated in sys_read")
	}

	// A corrupt register index at an activated PC is a harness fault
	// (the apply failed), not an outcome — the retry/quarantine
	// machinery upstream keys off exactly this.
	fn, _ := r.M.Prog.FuncByName("sys_read")
	_, hf := r.RunTarget(CampaignA, Target{
		Model: ModelRegflip, Func: fn, InstAddr: fn.Addr, InstLen: 1, Reg: 99,
	})
	if hf == nil || hf.Kind != FaultBreakpointIO {
		t.Fatalf("bad register: fault %+v, want %s", hf, FaultBreakpointIO)
	}
	if hf.Model != ModelRegflip || !strings.Contains(hf.Desc, "regflip") {
		t.Fatalf("fault not model-tagged: %+v", hf)
	}
}

func TestSyscallModelEndToEnd(t *testing.T) {
	r := newModelRunnerT(t, syscallModel{})
	if off, reason := r.CheckpointDisabled(); off || !r.Checkpointing() {
		t.Fatalf("syscall model must keep checkpointing on (off=%v reason=%q)", off, reason)
	}

	counts := r.GoldenSyscallCounts()
	if counts[kernel.SysWrite] == 0 || counts[kernel.SysRead] == 0 {
		t.Fatalf("golden syscall counts miss read/write: %v", counts)
	}

	rng := rand.New(rand.NewSource(5))
	targets, err := syscallModel{}.Enumerate(EnumContext{
		Prog: r.M.Prog, SyscallCounts: counts,
	}, CampaignA, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no syscall targets despite a syscall-rich golden run")
	}
	for _, tg := range targets {
		if tg.Model != ModelSyscall || tg.Occurrence == 0 || tg.SysName == "" {
			t.Fatalf("malformed syscall target %+v", tg)
		}
		if tg.Occurrence > counts[tg.SysNr] {
			t.Fatalf("occurrence %d beyond golden count %d for syscall %d",
				tg.Occurrence, counts[tg.SysNr], tg.SysNr)
		}
	}

	// Forcing -EIO out of the first write must activate and perturb the
	// run (the workloads check their write results).
	fn, _ := r.M.Prog.FuncByName("sys_write")
	tg := Target{Model: ModelSyscall, Func: fn,
		SysNr: kernel.SysWrite, SysName: "sys_write", Errno: kernel.EIO, Occurrence: 1}
	res, hf := r.RunTarget(CampaignA, tg)
	if hf != nil {
		t.Fatalf("harness fault: %v", hf)
	}
	if !res.Activated {
		t.Fatal("first-occurrence write injection did not activate")
	}
	if res.Outcome == OutcomeNotActivated {
		t.Fatalf("outcome %v for an activated injection", res.Outcome)
	}

	// Determinism: the same occurrence target classifies identically.
	res2, _ := r.RunTarget(CampaignA, tg)
	if res2.Outcome != res.Outcome || res2.ActivationCycle != res.ActivationCycle {
		t.Fatalf("nondeterministic syscall injection: %v/%d vs %v/%d",
			res.Outcome, res.ActivationCycle, res2.Outcome, res2.ActivationCycle)
	}

	// An occurrence past the golden count never fires: Not Activated,
	// the paper outcome, not a harness fault.
	far := tg
	far.Occurrence = counts[kernel.SysWrite] * 10
	res3, hf := r.RunTarget(CampaignA, far)
	if hf != nil || res3.Outcome != OutcomeNotActivated {
		t.Fatalf("unreached occurrence: %v, %v", res3.Outcome, hf)
	}

	// A malformed target (occurrence 0) is an arm fault.
	bad := tg
	bad.Occurrence = 0
	if _, hf = r.RunTarget(CampaignA, bad); hf == nil || hf.Kind != FaultArm {
		t.Fatalf("occurrence-0 target: fault %+v, want %s", hf, FaultArm)
	}
}

func TestDiskModelEndToEnd(t *testing.T) {
	r := newModelRunnerT(t, diskModel{})
	if off, reason := r.CheckpointDisabled(); !off || reason == "" {
		t.Fatal("disk model must disable checkpointing with a typed reason")
	}

	rng := rand.New(rand.NewSource(5))
	targets, err := diskModel{}.Enumerate(EnumContext{Prog: r.M.Prog, MaxTargetsPerFunc: 2}, CampaignA, rng)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, tg := range targets {
		if tg.Model != ModelDisk {
			t.Fatalf("untagged disk target %+v", tg)
		}
		kinds[tg.DiskKind] = true
		if tg.DiskKind == string(disk.FaultFlaky) && tg.FaultSeed == 0 {
			t.Fatalf("flaky target without a seed: %+v", tg)
		}
	}
	for _, k := range disk.FaultKinds() {
		if !kinds[string(k)] {
			t.Fatalf("enumeration misses kind %q (got %v)", k, kinds)
		}
	}

	outcomes := map[Outcome]int{}
	for _, tg := range targets {
		res, hf := r.RunTarget(CampaignA, tg)
		if hf != nil {
			t.Fatalf("harness fault on %s: %v", tg.Describe(), hf)
		}
		if !res.Activated {
			t.Fatalf("disk fault not activated: %s", tg.Describe())
		}
		outcomes[res.Outcome]++
	}
	if outcomes[OutcomeNotManifested]+outcomes[OutcomeFailSilence]+
		outcomes[OutcomeCrash]+outcomes[OutcomeHang] != len(targets) {
		t.Fatalf("outcome distribution incomplete: %v over %d targets", outcomes, len(targets))
	}
	if outcomes[OutcomeFailSilence] == 0 {
		t.Fatalf("no fail-silence violations from corrupted media: %v", outcomes)
	}

	// Flaky corruption is deterministic under a fixed seed.
	flaky := Target{Model: ModelDisk, Func: asm.Func{Name: "ramdisk", Section: "disk"},
		DiskKind: string(disk.FaultFlaky), Block: 3, FaultSeed: 2003}
	a, hf := r.RunTarget(CampaignA, flaky)
	if hf != nil {
		t.Fatal(hf)
	}
	b, hf := r.RunTarget(CampaignA, flaky)
	if hf != nil {
		t.Fatal(hf)
	}
	if a.Outcome != b.Outcome || a.TraceMismatch != b.TraceMismatch || a.DiskMismatch != b.DiskMismatch {
		t.Fatalf("flaky injection nondeterministic under fixed seed: %+v vs %+v", a.Outcome, b.Outcome)
	}

	// Malformed targets are arm faults, tagged in model-neutral terms.
	if _, hf = r.RunTarget(CampaignA, Target{Model: ModelDisk, DiskKind: "melted", Block: 0}); hf == nil || hf.Kind != FaultArm {
		t.Fatalf("unknown kind: fault %+v, want %s", hf, FaultArm)
	}
	_, hf = r.RunTarget(CampaignA, Target{Model: ModelDisk, DiskKind: string(disk.FaultError), Block: kernel.RamdiskBlocks})
	if hf == nil || hf.Kind != FaultArm || hf.Desc == "" {
		t.Fatalf("out-of-range block: fault %+v, want tagged %s", hf, FaultArm)
	}
}
