package kernel

import (
	"bytes"
	"errors"
	"fmt"
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

// recordGolden records the golden log of ws from snap, the state every
// record run below restores first.
func recordGolden(t *testing.T, m *Machine, snap *Snapshot, ws []Workload) *GoldenLog {
	t.Helper()
	m.Restore(snap)
	res, g := m.RecordGolden(snap, ws, 1<<40)
	if res.Err != nil {
		t.Fatalf("golden run: %v", res.Err)
	}
	return g
}

// recordAtBreakpoint runs a record run of ws, from rung or (rung nil)
// from snap, with a breakpoint at pc, and returns the checkpoint
// captured there plus the record run's result.
func recordAtBreakpoint(t *testing.T, m *Machine, g *GoldenLog, snap *Snapshot, rung *Checkpoint, ws []Workload, pc uint32) (*Checkpoint, *RunResult) {
	t.Helper()
	var cp *Checkpoint
	m.CPU.OnBreakpoint = func(c *cpu.CPU, dr int) {
		cp = m.CaptureCheckpoint()
		c.ClearBreakpoint(dr)
	}
	if rung == nil {
		m.Restore(snap)
	}
	rec := m.RecordWorkloads(g, rung, ws, 1<<40, func(m *Machine) { m.CPU.SetBreakpoint(0, pc) })
	m.CPU.OnBreakpoint = nil
	m.CPU.ClearBreakpoint(0)
	if rec.Err != nil {
		t.Fatalf("record run: %v", rec.Err)
	}
	if cp == nil {
		t.Fatalf("breakpoint at %#x never fired", pc)
	}
	return cp, rec
}

// forceGetpid returns a SyscallHook that forces -EIO out of the nth
// getpid, calling capture (when non-nil) just before it does.
func forceGetpid(nth int, capture func()) func(int, [4]uint32) (int32, bool) {
	n := 0
	return func(nr int, _ [4]uint32) (int32, bool) {
		if nr != SysGetpid {
			return 0, false
		}
		if n++; n != nth {
			return 0, false
		}
		if capture != nil {
			capture()
		}
		return -EIO, true
	}
}

// recordAtSyscall runs a record run of ws, from rung or (rung nil) from
// snap, whose nth getpid is forced to fail, capturing the checkpoint at
// that call's boundary.
func recordAtSyscall(t *testing.T, m *Machine, g *GoldenLog, snap *Snapshot, rung *Checkpoint, ws []Workload, nth int) (*Checkpoint, *RunResult) {
	t.Helper()
	var cp *Checkpoint
	if rung == nil {
		m.Restore(snap)
	}
	m.SyscallHook = forceGetpid(nth, func() { cp = m.CaptureCheckpoint() })
	rec := m.RecordWorkloads(g, rung, ws, 1<<40, nil)
	m.SyscallHook = nil
	if rec.Err != nil {
		t.Fatalf("record run: %v", rec.Err)
	}
	if cp == nil {
		t.Fatalf("getpid %d never happened", nth)
	}
	return cp, rec
}

// sameCheckpoint reports the first difference between two checkpoints
// of the same event: golden position, resume point, CPU state, watchdog
// limit, console, fault frames, and every page either changed since the
// pristine snapshot. "" means identical.
func sameCheckpoint(m *Machine, snap *Snapshot, a, b *Checkpoint) string {
	switch {
	case a.log != b.log || a.pos != b.pos:
		return "golden position"
	case a.at != b.at:
		return "resume point"
	case a.cpu != b.cpu:
		return "CPU state"
	case a.cycleLimit != b.cycleLimit:
		return "watchdog limit"
	case !bytes.Equal(a.console, b.console):
		return "console"
	case !reflect.DeepEqual(a.frames, b.frames):
		return "fault frames"
	}
	pages := map[uint32]struct{}{}
	for _, cp := range []*Checkpoint{a, b} {
		m.Mem.Restore(cp.mem)
		changed, ok := m.PagesChangedSince(snap)
		if !ok {
			return "page history"
		}
		for pn := range changed {
			pages[pn] = struct{}{}
		}
	}
	for pn := range pages {
		if a.mem.PermAt(pn<<PageShift) != b.mem.PermAt(pn<<PageShift) || !bytes.Equal(a.mem.RawPage(pn), b.mem.RawPage(pn)) {
			return fmt.Sprintf("page %#x", pn)
		}
	}
	return ""
}

// TestCheckpointReplayMatchesFullRun: a replay reproduces the full run
// with the same fault byte for byte, from a checkpoint captured at a
// breakpoint (no fault) and from one captured at a system call boundary
// (the hook forces the call's error return). Each event's checkpoint is
// captured twice: by a record run from the pristine snapshot, and by a
// record run resumed from a rung captured at an earlier event of the
// same kind (an earlier breakpoint, an earlier boundary). The two
// captures must be identical, and both must replay to the full run.
func TestCheckpointReplayMatchesFullRun(t *testing.T) {
	m, err := Boot()
	if err != nil {
		t.Fatal(err)
	}
	ws := testWorkload()
	snap := m.TakeSnapshot()
	g := recordGolden(t, m, snap, ws)
	noHook := func() func(int, [4]uint32) (int32, bool) { return nil }
	forced := func() func(int, [4]uint32) (int32, bool) { return forceGetpid(2, nil) }
	schedule, getpid := m.Symbol("schedule"), m.Symbol("sys_getpid")
	atSchedule := func(t *testing.T, rung *Checkpoint) (*Checkpoint, *RunResult) {
		return recordAtBreakpoint(t, m, g, snap, rung, ws, schedule)
	}
	atGetpid := func(t *testing.T, rung *Checkpoint) (*Checkpoint, *RunResult) {
		return recordAtBreakpoint(t, m, g, snap, rung, ws, getpid)
	}
	atFirstGetpid := func(t *testing.T, rung *Checkpoint) (*Checkpoint, *RunResult) {
		return recordAtSyscall(t, m, g, snap, rung, ws, 1)
	}
	atSecondGetpid := func(t *testing.T, rung *Checkpoint) (*Checkpoint, *RunResult) {
		return recordAtSyscall(t, m, g, snap, rung, ws, 2)
	}

	type recorder func(*testing.T, *Checkpoint) (*Checkpoint, *RunResult)
	for _, tc := range []struct {
		name   string
		hook   func() func(int, [4]uint32) (int32, bool)
		rung   recorder // captures the earlier event
		record recorder // captures the event the replays resume at
		want   string   // a line the full run's trace must hold
	}{
		{"breakpoint", noHook, atSchedule, atGetpid, "probe[2]: getpid=2"},
		{"syscall-boundary", forced, atFirstGetpid, atSecondGetpid, "probe[2]: getpid=-5"},
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

			direct, rec := tc.record(t, nil)
			if !reflect.DeepEqual(rec.Trace, full1.Trace) || rec.Console != full1.Console {
				t.Fatal("record run diverged from full run")
			}
			rung, _ := tc.rung(t, nil)
			if rung.Cycles() >= direct.Cycles() {
				t.Fatalf("rung captured at cycle %d, not before the event at %d", rung.Cycles(), direct.Cycles())
			}
			m.Console.WriteString("output of an earlier run\n")
			fromRung, rec := tc.record(t, rung)
			if !reflect.DeepEqual(rec.Trace, full1.Trace) || rec.Console != full1.Console {
				t.Fatal("record run resumed from the rung diverged from full run")
			}
			if d := sameCheckpoint(m, snap, fromRung, direct); d != "" {
				t.Fatalf("the checkpoint captured from the rung differs from the direct one in %s", d)
			}
			// Every capture is a delta over the pristine snapshot, never
			// over the rung it resumed, so chains stay one link deep.
			for _, cp := range []*Checkpoint{rung, direct, fromRung} {
				if cp.mem.Parent() != snap.mem {
					t.Fatal("a checkpoint's memory is not a delta over the pristine snapshot")
				}
			}

			// Replay: must reproduce the full run byte-for-byte,
			// repeatedly, without an intervening restore, whatever an
			// earlier run left on the console.
			for i, cp := range []*Checkpoint{direct, fromRung, direct, fromRung} {
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
	g := recordGolden(t, m, snap, ws)
	cp, _ := recordAtBreakpoint(t, m, g, snap, nil, ws, target)
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
	g := recordGolden(t, m, snap, ws)
	bp, _ := recordAtBreakpoint(t, m, g, snap, nil, ws, m.Symbol("schedule"))
	sc, _ := recordAtSyscall(t, m, g, snap, nil, ws, 2)
	lastCall := sc.pos - 1
	for g.ops[lastCall].kind != opCall {
		lastCall--
	}
	forced := func() { m.SyscallHook = forceGetpid(2, nil) }
	noHook := func() { m.SyscallHook = nil }

	// Tamper with a copy of the golden log or lower the position, so the
	// replayed engine's ops cannot match: the replay must fail with
	// ErrReplayDiverged, not fabricate an outcome, and the engine must
	// wind down (no goroutine deadlock).
	for name, tc := range map[string]struct {
		cp     *Checkpoint
		arm    func()
		mutate func(*Checkpoint)
	}{
		"wrong-op-kind":   {bp, noHook, func(c *Checkpoint) { c.log.ops[0].kind = opProtect }},
		"wrong-addr":      {bp, noHook, func(c *Checkpoint) { c.log.ops[0].addr ^= 4 }},
		"lowered-pos":     {bp, noHook, func(c *Checkpoint) { c.pos = 1 }},
		"wrong-call-args": {bp, noHook, func(c *Checkpoint) { c.at.args ^= 1 }},
		// At a system call boundary: different args, an op past the
		// position, a top-level call reaching the position, and a hook
		// that does not handle the call.
		"boundary-args":          {sc, forced, func(c *Checkpoint) { c.at.args ^= 1 }},
		"boundary-lowered-pos":   {sc, forced, func(c *Checkpoint) { c.pos = 0 }},
		"boundary-call-past-pos": {sc, forced, func(c *Checkpoint) { c.pos = lastCall }},
		"boundary-hook-declines": {sc, noHook, func(*Checkpoint) {}},
	} {
		bad := *tc.cp
		log := *g
		log.ops = slices.Clone(g.ops)
		bad.log = &log
		tc.mutate(&bad)
		tc.arm()
		res := m.RunWorkloadsFromCheckpoint(&bad, ws, nil)
		if !errors.Is(res.Err, ErrReplayDiverged) {
			t.Fatalf("%s: got err %v, want ErrReplayDiverged", name, res.Err)
		}
	}

	// A record run whose live op differs from the golden log before its
	// activation event has left its golden path: it captures nothing and
	// reports the divergence, whether it starts from the pristine
	// snapshot or resumes the breakpoint checkpoint as a rung.
	for _, tc := range []struct {
		name string
		rung *Checkpoint
		op   int
	}{{"verify-pristine", nil, 1}, {"verify-rung", bp, bp.pos + 1}} {
		log := *g
		log.ops = slices.Clone(g.ops)
		log.ops[tc.op].val ^= 1
		noHook()
		var cp *Checkpoint
		m.CPU.OnBreakpoint = func(c *cpu.CPU, dr int) {
			cp = m.CaptureCheckpoint()
			c.ClearBreakpoint(dr)
		}
		m.Restore(snap)
		res := m.RecordWorkloads(&log, tc.rung, ws, 1<<40, func(m *Machine) { m.CPU.SetBreakpoint(0, m.Symbol("sys_getpid")) })
		m.CPU.OnBreakpoint = nil
		if cp != nil || !errors.Is(res.Err, ErrReplayDiverged) {
			t.Fatalf("%s: checkpoint %v, err %v; want none and ErrReplayDiverged", tc.name, cp != nil, res.Err)
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

// TestOpSize pins the op log's per-op cost: the golden log holds
// thousands of ops, and only ReadBytes buffers and errors go to the
// side table.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n != 20 {
		t.Fatalf("op is %d bytes, want 20", n)
	}
}
