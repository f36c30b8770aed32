package inject

import (
	"math/rand"
	"reflect"
	"testing"

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
	if ckpt.cur != nil {
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
	}
}
