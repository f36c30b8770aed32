package inject

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/unixbench"
)

// newRunnersT boots a checkpointing runner and a NoCheckpoint reference
// runner from identical machines.
func newRunnersT(t *testing.T) (ckpt, ref *Runner) {
	t.Helper()
	ckpt, err := NewRunner(unixbench.Suite(1))
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	ref, err = NewRunnerWithOptions(unixbench.Suite(1), RunnerOptions{EngineOptions: EngineOptions{NoCheckpoint: true}})
	if err != nil {
		t.Fatalf("NewRunnerWithOptions: %v", err)
	}
	return ckpt, ref
}

// runParity runs every target through both runners and requires
// byte-identical results. Targets arrive in enumeration order, so
// multi-byte instructions exercise the record-then-replay path and the
// reference runner answers whether replay corrupted anything.
func runParity(t *testing.T, ckpt, ref *Runner, c Campaign, targets []Target) (replayed int) {
	t.Helper()
	prevPC := uint32(0)
	for i, tg := range targets {
		if i > 0 && tg.InstAddr == prevPC {
			replayed++
		}
		prevPC = tg.InstAddr
		got, gf := ckpt.RunTarget(c, tg)
		want, wf := ref.RunTarget(c, tg)
		if gf != nil || wf != nil {
			t.Fatalf("target %d (%s+%#x byte %d bit %d): faults ckpt=%v ref=%v",
				i, tg.Func.Name, tg.InstAddr, tg.ByteOff, tg.Bit, gf, wf)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("target %d (%s+%#x byte %d bit %d) diverged:\ncheckpointed %+v\nfull-replay  %+v",
				i, tg.Func.Name, tg.InstAddr, tg.ByteOff, tg.Bit, got, want)
		}
	}
	return replayed
}

// TestCheckpointParityCampaignA compares checkpointed and full-replay
// results bit-for-bit over a hot function's campaign A targets.
func TestCheckpointParityCampaignA(t *testing.T) {
	ckpt, ref := newRunnersT(t)
	fn, _ := ckpt.M.Prog.FuncByName("do_generic_file_read")
	targets, err := EnumerateTargets(ckpt.M.Prog, fn, CampaignA, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) > 60 {
		targets = targets[:60]
	}
	replayed := runParity(t, ckpt, ref, CampaignA, targets)
	if replayed == 0 {
		t.Fatal("no same-PC target pairs: the replay path was never exercised")
	}
	t.Logf("parity over %d targets, %d served from checkpoint", len(targets), replayed)
}

// TestCheckpointParityCampaignB covers the conditional-branch byte
// campaign, whose corruptions skew toward control-flow outcomes.
func TestCheckpointParityCampaignB(t *testing.T) {
	ckpt, ref := newRunnersT(t)
	fn, _ := ckpt.M.Prog.FuncByName("schedule")
	targets, err := EnumerateTargets(ckpt.M.Prog, fn, CampaignB, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) > 40 {
		targets = targets[:40]
	}
	replayed := runParity(t, ckpt, ref, CampaignB, targets)
	t.Logf("parity over %d targets, %d served from checkpoint", len(targets), replayed)
}

// TestCheckpointSynthesizesNotActivated: every target at a PC the
// golden run never reached, the first at the PC as well as its
// siblings, is answered without running the machine, caches no
// checkpoint, and still matches the full-replay reference.
func TestCheckpointSynthesizesNotActivated(t *testing.T) {
	ckpt, ref := newRunnersT(t)
	fn, _ := ckpt.M.Prog.FuncByName("cpu_idle")
	targets := []Target{
		{Func: fn, InstAddr: fn.Addr, InstLen: 2, ByteOff: 0, Bit: 0},
		{Func: fn, InstAddr: fn.Addr, InstLen: 2, ByteOff: 0, Bit: 5},
		{Func: fn, InstAddr: fn.Addr, InstLen: 2, ByteOff: 1, Bit: 3},
	}
	for i, tg := range targets {
		before := ckpt.M.CPU.Cycles
		got, gf := ckpt.RunTarget(CampaignA, tg)
		if ckpt.M.CPU.Cycles != before {
			t.Fatalf("target %d: a never-reached target ran the machine", i)
		}
		want, wf := ref.RunTarget(CampaignA, tg)
		if gf != nil || wf != nil {
			t.Fatalf("target %d: faults ckpt=%v ref=%v", i, gf, wf)
		}
		if got.Outcome != OutcomeNotActivated || !reflect.DeepEqual(got, want) {
			t.Fatalf("target %d diverged:\nsynthesized %+v\nfull-replay %+v", i, got, want)
		}
	}
	if len(ckpt.cps) != 0 {
		t.Fatal("a never-reached PC cached a checkpoint")
	}
}

// TestCheckpointInvalidatedOnNewPC: moving to a different PC discards
// the cache and re-records, and returning to a previously-seen PC
// re-records again rather than resurrecting a stale entry.
func TestCheckpointInvalidatedOnNewPC(t *testing.T) {
	ckpt, ref := newRunnersT(t)
	fnA, _ := ckpt.M.Prog.FuncByName("do_generic_file_read")
	fnB, _ := ckpt.M.Prog.FuncByName("sys_read")
	ta, err := EnumerateTargets(ckpt.M.Prog, fnA, CampaignA, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := EnumerateTargets(ckpt.M.Prog, fnB, CampaignA, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	// A → B → back to A: the second visit to ta[0]'s PC must not reuse
	// the first visit's checkpoint entry (it was displaced by B).
	seq := []struct {
		c  Campaign
		tg Target
	}{
		{CampaignA, ta[0]}, {CampaignA, ta[1]},
		{CampaignA, tb[0]}, {CampaignA, tb[1]},
		{CampaignA, ta[0]}, {CampaignA, ta[1]},
	}
	for i, s := range seq {
		got, gf := ckpt.RunTarget(s.c, s.tg)
		want, wf := ref.RunTarget(s.c, s.tg)
		if gf != nil || wf != nil {
			t.Fatalf("step %d: faults ckpt=%v ref=%v", i, gf, wf)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d diverged:\ncheckpointed %+v\nfull-replay  %+v", i, got, want)
		}
		if len(ckpt.cps) != 1 || ckpt.cps[0].key.Group != uint64(s.tg.InstAddr) {
			t.Fatalf("step %d: the cache holds %d checkpoints, want only the current PC's", i, len(ckpt.cps))
		}
	}
}

// TestSyscallCheckpointCensus runs the syscall model's full target list
// at scales 1 and 3 and counts the targets the runner resumed from a
// checkpoint captured at an earlier target's syscall boundary
// (ProvReplay): the three errnos forced at one (nr, N) share it, so two
// of every three must replay. The cache must only ever hold the current
// syscall number's checkpoints. The core package's final-state oracle
// compares these runs with full runs.
func TestSyscallCheckpointCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("the syscall model's full target list, twice")
	}
	for _, tc := range []struct {
		scale       unixbench.Scale
		minReplayed int
	}{{1, 76}, {3, 90}} {
		r, err := NewRunnerWithOptions(unixbench.Suite(tc.scale), RunnerOptions{Model: syscallModel{}})
		if err != nil {
			t.Fatal(err)
		}
		targets, err := syscallModel{}.Enumerate(EnumContext{Prog: r.M.Prog, SyscallCounts: r.GoldenSyscallCounts()},
			CampaignA, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		replayed := 0
		for i, tg := range targets {
			if _, hf := r.RunTarget(CampaignA, tg); hf != nil {
				t.Fatalf("scale %d target %d (%s): %v", tc.scale, i, tg.Describe(), hf)
			}
			if r.LastProvenance() == ProvReplay {
				replayed++
			}
			if len(r.cps) > 3 {
				t.Fatalf("scale %d target %d: %d checkpoints cached, want at most 3", tc.scale, i, len(r.cps))
			}
			key := syscallModel{}.ActivationKey(tg)
			for _, e := range r.cps {
				if e.key.Group != key.Group {
					t.Fatalf("scale %d target %d: the cache kept syscall %d's checkpoint", tc.scale, i, e.key.Group)
				}
			}
		}
		t.Logf("scale %d: %d targets, %d recorded, %d replayed", tc.scale, len(targets), len(targets)-replayed, replayed)
		if replayed < tc.minReplayed {
			t.Fatalf("scale %d: %d of %d targets replayed, want at least %d", tc.scale, replayed, len(targets), tc.minReplayed)
		}
	}
}

// TestSyscallRecordRunOffGoldenLogDiverges: a syscall record run whose
// machine ops leave the golden log is replay-diverged, never a Not
// Activated result. With no workload, its first top-level kernel call
// is not the golden run's, so the kernel's op verification fails it
// before it could make the call its hook waits for.
func TestSyscallRecordRunOffGoldenLogDiverges(t *testing.T) {
	r := newModelRunnerT(t, syscallModel{})
	fn, _ := r.M.Prog.FuncByName("sys_write")
	tg := Target{Model: ModelSyscall, Func: fn,
		SysNr: kernel.SysWrite, SysName: "sys_write", Errno: kernel.EIO, Occurrence: 1}
	if r.GoldenSyscallCounts()[kernel.SysWrite] < tg.Occurrence {
		t.Fatal("golden run never called write")
	}
	r.Workloads = nil // the record run now executes no workload
	_, hf := r.RunTarget(CampaignA, tg)
	if hf == nil || hf.Kind != FaultReplayDiverged {
		t.Fatalf("fault = %v, want %s", hf, FaultReplayDiverged)
	}
}

// aliasedPC is a point model whose targets at pc take the activation
// key of the targets at as, so they resume as's checkpoint.
type aliasedPC struct {
	PointModel
	pc, as uint32
}

func (a aliasedPC) ActivationKey(t Target) ActivationKey {
	if t.InstAddr == a.pc {
		t.InstAddr = a.as
	}
	return a.PointModel.ActivationKey(t)
}

// shiftedSyscall arms every syscall target's fault at occurrence
// Occurrence+by; its key stays the target's own.
type shiftedSyscall struct {
	ArmedModel
	by int
}

func (s shiftedSyscall) Arm(m *kernel.Machine, t Target) (*Armed, error) {
	t.Occurrence = uint64(int(t.Occurrence) + s.by)
	return s.ArmedModel.Arm(m, t)
}

// TestRunnerCatchesWrongActivation: the kernel captures wherever a
// run's breakpoint or hook fires; the runner must check that the
// capture is the target's own activation, and that a run whose
// activation the golden run reached captured at all. Each case swaps
// the model for one that arms the wrong event, all but the last after
// recording a real checkpoint, and must end in replay-diverged, never
// an outcome.
func TestRunnerCatchesWrongActivation(t *testing.T) {
	wantDiverged := func(t *testing.T, r *Runner, tg Target, prov Provenance) {
		t.Helper()
		_, hf := r.RunTarget(CampaignA, tg)
		if r.LastProvenance() != prov {
			t.Fatalf("provenance %d, want %d", r.LastProvenance(), prov)
		}
		if hf == nil || hf.Kind != FaultReplayDiverged {
			t.Fatalf("fault = %v, want %s", hf, FaultReplayDiverged)
		}
	}
	record := func(t *testing.T, r *Runner, tg Target) {
		t.Helper()
		_, hf := r.RunTarget(CampaignA, tg)
		if cp := CachedCheckpoint(r, tg); hf != nil || cp == nil {
			t.Fatalf("record run of %s: fault %v, checkpoint cached %v", tg.Describe(), hf, cp != nil)
		}
	}

	t.Run("sibling-at-a-later-pc", func(t *testing.T) {
		// The target at a resumes the checkpoint of b, which the golden
		// run first reaches later: a's breakpoint cannot fire there.
		r := newModelRunnerT(t, bitflipModel{})
		fn, _ := r.M.Prog.FuncByName("do_generic_file_read")
		insts, addrs, err := decodeFunc(r.M.Prog, fn)
		if err != nil {
			t.Fatal(err)
		}
		a, b := addrs[0], addrs[1]
		actA, _, _ := r.cov.FirstStart(a)
		if actB, reached, _ := r.cov.FirstStart(b); !reached || actB <= actA {
			t.Fatalf("%#x first starts at %d, not after %#x at %d", b, actB, a, actA)
		}
		record(t, r, Target{Func: fn, InstAddr: b, InstLen: int(insts[1].Len), Bit: 1})
		r.model = aliasedPC{PointModel: bitflipModel{}, pc: a, as: b}
		wantDiverged(t, r, Target{Func: fn, InstAddr: a, InstLen: int(insts[0].Len), Bit: 1}, ProvReplay)
	})

	write := func(t *testing.T, r *Runner, occ uint64, errno int) Target {
		t.Helper()
		f, _ := r.M.Prog.FuncByName("sys_write")
		if r.GoldenSyscallCounts()[kernel.SysWrite] < 2 {
			t.Fatal("golden run called write fewer than twice")
		}
		return Target{Model: ModelSyscall, Func: f, SysNr: kernel.SysWrite, SysName: "sys_write", Errno: errno, Occurrence: occ}
	}
	t.Run("record-run-handles-the-rung", func(t *testing.T) {
		// Call 2's record run resumes call 1's checkpoint as its rung,
		// and its hook handles call 1 there: the capture is the rung.
		r := newModelRunnerT(t, syscallModel{})
		record(t, r, write(t, r, 1, kernel.EIO))
		r.model = shiftedSyscall{ArmedModel: syscallModel{}, by: -1}
		wantDiverged(t, r, write(t, r, 2, kernel.EIO), ProvRecordRung)
	})
	t.Run("sibling-hook-declines", func(t *testing.T) {
		// A sibling at call 1 resumes its own checkpoint, and its hook
		// declines call 1 there, and every later call: the run is the
		// golden run to the end and never captures.
		r := newModelRunnerT(t, syscallModel{})
		record(t, r, write(t, r, 1, kernel.EIO))
		r.model = shiftedSyscall{ArmedModel: syscallModel{}, by: int(r.GoldenSyscallCounts()[kernel.SysWrite])}
		wantDiverged(t, r, write(t, r, 1, kernel.EFAULT), ProvReplay)
	})
	t.Run("record-run-hook-never-fires", func(t *testing.T) {
		// A record run from the pristine snapshot whose hook waits for a
		// write past the golden run's last: the run is the golden run to
		// the end, every op verified, and never captures, although the
		// golden run reached its target's call.
		r := newModelRunnerT(t, syscallModel{})
		r.model = shiftedSyscall{ArmedModel: syscallModel{}, by: int(r.GoldenSyscallCounts()[kernel.SysWrite])}
		wantDiverged(t, r, write(t, r, 1, kernel.EIO), ProvRecord)
	})
}
