package kernel

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/cpu"
)

// testWorkload is a small deterministic workload exercising syscalls,
// user memory, compute time and the fault path — enough to populate a
// meaningful op log.
func testWorkload() []Workload {
	return []Workload{{
		Name: "probe",
		Main: func(u *User) {
			a := u.Arena()
			u.Poke(a, 0x1234)
			if v := u.Peek(a); v != 0x1234 {
				u.Logf("readback mismatch: %#x", v)
			}
			u.Compute(20000)
			for i := 0; i < 3; i++ {
				u.Logf("getpid=%d", u.Syscall(SysGetpid))
			}
			u.WriteBuf(a+64, []byte("hello checkpoint"))
			b := u.ReadBuf(a+64, 16)
			u.Logf("buf=%q", string(b))
			u.Exit(0)
		},
	}}
}

// recordAtSchedule records a run of ws with a breakpoint at schedule
// (hit early and often) and returns the captured checkpoint plus the
// record run's result.
func recordAtSchedule(t *testing.T, m *Machine, ws []Workload) (*Checkpoint, *RunResult) {
	t.Helper()
	m.StartRecording()
	var cp *Checkpoint
	m.CPU.OnBreakpoint = func(c *cpu.CPU, dr int) {
		cp = m.CaptureCheckpoint()
		c.ClearBreakpoint(dr)
	}
	m.CPU.SetBreakpoint(0, m.Symbol("schedule"))
	rec := m.RunWorkloads(ws, 1<<40)
	m.StopRecording()
	m.CPU.OnBreakpoint = nil
	m.CPU.ClearBreakpoint(0)
	if rec.Err != nil {
		t.Fatalf("record run: %v", rec.Err)
	}
	if cp == nil {
		t.Fatal("breakpoint at schedule never fired")
	}
	return cp, rec
}

// forceSecondGetpid returns a SyscallHook that forces -EIO out of the
// second getpid, calling capture (when non-nil) just before it does.
func forceSecondGetpid(capture func()) func(int, [4]uint32) (int32, bool) {
	n := 0
	return func(nr int, _ [4]uint32) (int32, bool) {
		if nr != SysGetpid {
			return 0, false
		}
		if n++; n != 2 {
			return 0, false
		}
		if capture != nil {
			capture()
		}
		return -EIO, true
	}
}

// recordAtSyscall records a run of ws whose second getpid is forced to
// fail, capturing the checkpoint at that call's boundary.
func recordAtSyscall(t *testing.T, m *Machine, ws []Workload) (*Checkpoint, *RunResult) {
	t.Helper()
	m.StartRecording()
	var cp *Checkpoint
	m.SyscallHook = forceSecondGetpid(func() { cp = m.CaptureCheckpoint() })
	rec := m.RunWorkloads(ws, 1<<40)
	m.StopRecording()
	m.SyscallHook = nil
	if rec.Err != nil {
		t.Fatalf("record run: %v", rec.Err)
	}
	if cp == nil {
		t.Fatal("the second getpid never happened")
	}
	return cp, rec
}

// TestCheckpointReplayMatchesFullRun: a replay reproduces the full run
// with the same fault byte for byte, from a checkpoint captured at a
// breakpoint (no fault) and from one captured at a system call boundary
// (the hook forces the call's error return).
func TestCheckpointReplayMatchesFullRun(t *testing.T) {
	m, err := Boot()
	if err != nil {
		t.Fatal(err)
	}
	ws := testWorkload()
	snap := m.TakeSnapshot()
	noHook := func() func(int, [4]uint32) (int32, bool) { return nil }
	forced := func() func(int, [4]uint32) (int32, bool) { return forceSecondGetpid(nil) }

	for _, tc := range []struct {
		name   string
		hook   func() func(int, [4]uint32) (int32, bool)
		record func(*testing.T, *Machine, []Workload) (*Checkpoint, *RunResult)
		want   string // a line the full run's trace must hold
	}{
		{"breakpoint", noHook, recordAtSchedule, "probe[2]: getpid=2"},
		{"syscall-boundary", forced, recordAtSyscall, "probe[2]: getpid=-5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Reference: two identical full runs pin determinism itself.
			m.Restore(snap)
			m.SyscallHook = tc.hook()
			full1 := m.RunWorkloads(ws, 1<<40)
			if full1.Err != nil {
				t.Fatalf("full run: %v", full1.Err)
			}
			m.Restore(snap)
			m.SyscallHook = tc.hook()
			full2 := m.RunWorkloads(ws, 1<<40)
			if !reflect.DeepEqual(full1.Trace, full2.Trace) || full1.Console != full2.Console {
				t.Fatal("full runs are not deterministic; replay parity is untestable")
			}
			if !slices.Contains(full1.Trace, tc.want) {
				t.Fatalf("full run trace %q lacks %q", full1.Trace, tc.want)
			}
			fullDisk, err := m.DiskImage()
			if err != nil {
				t.Fatal(err)
			}
			fullCycles := m.CPU.Cycles

			m.Restore(snap)
			cp, rec := tc.record(t, m, ws)
			if !reflect.DeepEqual(rec.Trace, full1.Trace) || rec.Console != full1.Console {
				t.Fatal("record run diverged from full run")
			}

			// Replay: must reproduce the full run byte-for-byte,
			// repeatedly, without an intervening restore, whatever an
			// earlier run left on the console.
			for i := 0; i < 3; i++ {
				m.Console.WriteString("output of an earlier run\n")
				m.SyscallHook = tc.hook()
				rep := m.RunWorkloadsFromCheckpoint(cp, ws, nil)
				if rep.Err != nil {
					t.Fatalf("replay %d: %v", i, rep.Err)
				}
				if !reflect.DeepEqual(rep.Trace, full1.Trace) {
					t.Fatalf("replay %d trace diverged:\n got %q\nwant %q", i, rep.Trace, full1.Trace)
				}
				if rep.Console != full1.Console {
					t.Fatalf("replay %d console diverged", i)
				}
				if m.CPU.Cycles != fullCycles {
					t.Fatalf("replay %d cycles: got %d, want %d", i, m.CPU.Cycles, fullCycles)
				}
				disk, err := m.DiskImage()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(disk, fullDisk) {
					t.Fatalf("replay %d disk image diverged", i)
				}
			}
		})
	}
}

func TestReplayAppliesFlip(t *testing.T) {
	// A flip applied at resume must affect the outcome exactly as the
	// same raw write applied at a live breakpoint would. Corrupt the
	// first byte of schedule's body with the interrupt flag test: a
	// full run with the live flip and a replay with applyFlip must
	// agree on trace, console and error.
	m, err := Boot()
	if err != nil {
		t.Fatal(err)
	}
	ws := testWorkload()
	snap := m.TakeSnapshot()
	target := m.Symbol("schedule")

	flip := func(mm *Machine) {
		b, err := mm.Mem.ReadRaw(target, 1)
		if err != nil {
			t.Fatalf("read target: %v", err)
		}
		if err := mm.Mem.WriteRaw(target, []byte{b[0] ^ 0x01}); err != nil {
			t.Fatalf("write target: %v", err)
		}
	}

	// Live reference: breakpoint fires, flip applied, run continues.
	m.Restore(snap)
	m.CPU.OnBreakpoint = func(c *cpu.CPU, dr int) {
		flip(m)
		c.ClearBreakpoint(dr)
	}
	m.CPU.SetBreakpoint(0, target)
	live := m.RunWorkloads(ws, 1<<40)
	m.CPU.OnBreakpoint = nil
	m.CPU.ClearBreakpoint(0)

	// Checkpointed: record (capture before flip, then clean run), then
	// replay with the flip.
	m.Restore(snap)
	cp, _ := recordAtSchedule(t, m, ws)
	rep := m.RunWorkloadsFromCheckpoint(cp, ws, flip)

	if (live.Err == nil) != (rep.Err == nil) {
		t.Fatalf("err mismatch: live %v, replay %v", live.Err, rep.Err)
	}
	if live.Err != nil && live.Err.Error() != rep.Err.Error() {
		t.Fatalf("err mismatch: live %v, replay %v", live.Err, rep.Err)
	}
	if !reflect.DeepEqual(live.Trace, rep.Trace) {
		t.Fatalf("trace mismatch:\nlive  %q\nreplay %q", live.Trace, rep.Trace)
	}
	if live.Console != rep.Console {
		t.Fatal("console mismatch")
	}
}

func TestReplayDivergenceDetected(t *testing.T) {
	m, err := Boot()
	if err != nil {
		t.Fatal(err)
	}
	ws := testWorkload()
	snap := m.TakeSnapshot()
	m.Restore(snap)
	bp, _ := recordAtSchedule(t, m, ws)
	m.Restore(snap)
	sc, _ := recordAtSyscall(t, m, ws)
	lastCall := len(sc.log.ops) - 1
	for sc.log.ops[lastCall].kind != opCall {
		lastCall--
	}
	forced := func() { m.SyscallHook = forceSecondGetpid(nil) }
	noHook := func() { m.SyscallHook = nil }

	// Tamper with the log so the replayed engine's ops cannot match:
	// the replay must fail with ErrReplayDiverged, not fabricate an
	// outcome, and the engine must wind down (no goroutine deadlock).
	for name, tc := range map[string]struct {
		cp     *Checkpoint
		arm    func()
		mutate func(*Checkpoint)
	}{
		"wrong-op-kind": {bp, noHook, func(c *Checkpoint) { c.log.ops[0].kind = opProtect }},
		"wrong-addr":    {bp, noHook, func(c *Checkpoint) { c.log.ops[0].addr ^= 4 }},
		"truncated-log": {bp, noHook, func(c *Checkpoint) { c.log.ops = c.log.ops[:1]; c.at.id = 0xDEAD }},
		// At a system call boundary: different args, an op past the
		// end of the log, a top-level call reaching the end of the log,
		// and a hook that does not handle the call.
		"boundary-args":          {sc, forced, func(c *Checkpoint) { c.at.args ^= 1 }},
		"boundary-truncated-log": {sc, forced, func(c *Checkpoint) { c.log.ops = c.log.ops[:0] }},
		"boundary-call-past-end": {sc, forced, func(c *Checkpoint) { c.log.ops = c.log.ops[:lastCall] }},
		"boundary-hook-declines": {sc, noHook, func(*Checkpoint) {}},
	} {
		bad := *tc.cp
		bad.log.ops = append([]op(nil), tc.cp.log.ops...)
		tc.mutate(&bad)
		tc.arm()
		res := m.RunWorkloadsFromCheckpoint(&bad, ws, nil)
		if !errors.Is(res.Err, ErrReplayDiverged) {
			t.Fatalf("%s: got err %v, want ErrReplayDiverged", name, res.Err)
		}
	}

	// The pristine checkpoints must still replay cleanly afterwards.
	noHook()
	if res := m.RunWorkloadsFromCheckpoint(bp, ws, nil); res.Err != nil {
		t.Fatalf("clean replay after divergence tests: %v", res.Err)
	}
	forced()
	if res := m.RunWorkloadsFromCheckpoint(sc, ws, nil); res.Err != nil {
		t.Fatalf("clean boundary replay after divergence tests: %v", res.Err)
	}
}

// TestOpSize pins the op log's per-op cost: a checkpoint holds up to
// thousands of ops, and only ReadBytes buffers and errors go to the
// side table.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n != 20 {
		t.Fatalf("op is %d bytes, want 20", n)
	}
}
